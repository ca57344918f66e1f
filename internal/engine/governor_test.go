package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
)

// TestReapCrossStragglerUnblocksDownstreamGC pins the interaction between
// the governor and PR 3's cross-ancestor conservatism. A cross-partition
// sleeper traps eight victims (reads their entities before they write),
// so every victim is double-gated: C1 fails (the sleeper is an active
// tight predecessor with no witness in sight) AND the victim carries the
// sleeper's cross-ancestor label. Reaping the sleeper must kill its labels
// along with the arcs, so ONE governor pass — reap plus its forced sweep —
// reclaims the whole backlog. Run under -race in CI.
func TestReapCrossStragglerUnblocksDownstreamGC(t *testing.T) {
	eng := New(Config{
		Shards: 2,
		Policy: func() core.Policy { return core.GreedyC1{} }, // no RetentionWatermark: only govern drives reaping
	})
	defer eng.Close()
	must := func(res Result) {
		t.Helper()
		if !res.Accepted() {
			t.Fatalf("%v: %v (%v)", res.Step, res.Outcome(), res.Err)
		}
	}

	// The sleeper: cross footprint {0,1}, so it sources labels on both
	// shards. It reads each victim's trap entity (even entities, shard 0)
	// before the victim writes it, then never commits.
	must(submit(eng, model.BeginDeclared(1, 0, 1)))
	const victims = 8
	for k := 1; k <= victims; k++ {
		trap := model.Entity(2 * k)
		vid := model.TxnID(100 + k)
		must(submit(eng, model.Read(1, trap)))
		must(submit(eng, model.BeginDeclared(vid, trap)))
		res := submit(eng, model.WriteFinal(vid, trap))
		if !res.Accepted() || res.CompletedTxn != vid {
			t.Fatalf("victim %d final: %v (%v)", vid, res.Outcome(), res.Err)
		}
	}

	// The shard swept as its sweeps' kept lists allowed, yet nothing was
	// deletable: the victims are hostages.
	if got := retainedTotal(eng); got != victims {
		t.Fatalf("retained before reap = %d, want %d (victims pinned)", got, victims)
	}

	// One governor pass: reap the sleeper, sweep, watermark holds again.
	if n := eng.govern(4); n != 1 {
		t.Fatalf("govern reaped %d, want 1", n)
	}
	if s := eng.Stats(); s.Reaped != 1 {
		t.Fatalf("Stats.Reaped = %d, want 1", s.Reaped)
	}
	if got := retainedTotal(eng); got != 0 {
		t.Fatalf("retained after reap = %d, want 0 (labels must die with the sleeper)", got)
	}

	// The sleeper's session sees the dedicated sentinel — and still the
	// generic one, so existing errors.Is(err, ErrTxnAborted) code holds.
	res := submit(eng, model.Read(1, 18))
	if !errors.Is(res.Err, ErrStragglerAborted) || !errors.Is(res.Err, ErrTxnAborted) {
		t.Fatalf("post-reap step err = %v, want ErrStragglerAborted wrapping ErrTxnAborted", res.Err)
	}

	// No registry debris: the reap went through the same cross-abort path
	// as a client abort, which drops the entry (and with it the labels).
	eng.registry.mu.Lock()
	live := len(eng.registry.txns)
	eng.registry.mu.Unlock()
	if live != 0 {
		t.Fatalf("cross-arc registry still tracks %d transactions after the reap", live)
	}

	// Below the watermark the governor is idle.
	if n := eng.govern(4); n != 0 {
		t.Fatalf("second govern reaped %d, want 0 (watermark holds)", n)
	}
}

// TestGovernorExemptsPriorityHigh: a PriorityHigh straggler is older than a
// normal one and pins its own victim, but the governor must skip it — it
// reaps the younger normal straggler instead, and the high-priority
// transaction still commits afterwards.
func TestGovernorExemptsPriorityHigh(t *testing.T) {
	eng := New(Config{
		Shards: 1,
		Policy: func() core.Policy { return core.GreedyC1{} },
	})
	defer eng.Close()
	must := func(res Result) {
		t.Helper()
		if !res.Accepted() {
			t.Fatalf("%v: %v (%v)", res.Step, res.Outcome(), res.Err)
		}
	}

	// T1: PriorityHigh sleeper, begun first (oldest by BeginSeq). Traps
	// victim 100 via entity 2.
	must(eng.SubmitPriority(context.Background(), model.BeginDeclared(1, 0), PriorityHigh))
	must(submit(eng, model.Read(1, 2)))
	// T2: normal sleeper, younger. Traps victim 101 via entity 4.
	must(submit(eng, model.BeginDeclared(2, 4)))
	must(submit(eng, model.Read(2, 4)))

	must(submit(eng, model.BeginDeclared(100, 2)))
	must(submit(eng, model.WriteFinal(100, 2)))
	must(submit(eng, model.BeginDeclared(101, 4)))
	must(submit(eng, model.WriteFinal(101, 4)))

	if got := retainedTotal(eng); got != 2 {
		t.Fatalf("retained = %d, want 2", got)
	}
	if n := eng.govern(2); n != 1 {
		t.Fatalf("govern reaped %d, want 1 (the normal straggler only)", n)
	}
	// T2's hostage is reclaimed; T1's is still pinned — by design, the
	// exemption trades retention for priority.
	if got := retainedTotal(eng); got != 1 {
		t.Fatalf("retained after reap = %d, want 1 (high-priority victim stays pinned)", got)
	}
	res := submit(eng, model.Read(2, 6))
	if !errors.Is(res.Err, ErrStragglerAborted) {
		t.Fatalf("reaped straggler err = %v, want ErrStragglerAborted", res.Err)
	}
	// The exempt transaction was untouched and commits normally.
	res = submit(eng, model.WriteFinal(1, 0))
	if !res.Accepted() || res.CompletedTxn != 1 {
		t.Fatalf("PriorityHigh final after governor pass: %v (%v) — exemption violated", res.Outcome(), res.Err)
	}
}

// TestGovernorCountsTheReapsOwnSweep pins the pass's stop rule. Two
// sleepers on one shard pin four victims each, and the shard is driven to
// one termination short of its next sweep, so the first reap's own abort
// run sweeps what that reap freed. The forced sweep after it then deletes
// nothing, yet retention fell from 8 to 4: the pass must go on and reap the
// second sleeper, since 4 is still over the watermark.
func TestGovernorCountsTheReapsOwnSweep(t *testing.T) {
	const perSleeper = 4
	eng := New(Config{
		Shards: 1,
		Policy: func() core.Policy { return core.GreedyC1{} }, // no RetentionWatermark: only govern drives reaping
	})
	defer eng.Close()
	must := func(res Result) {
		t.Helper()
		if !res.Accepted() {
			t.Fatalf("%v: %v (%v)", res.Step, res.Outcome(), res.Err)
		}
	}
	must(submit(eng, model.BeginDeclared(1, 0)))
	must(submit(eng, model.BeginDeclared(2, 0)))
	for s := model.TxnID(1); s <= 2; s++ {
		for k := 1; k <= perSleeper; k++ {
			trap, vid := model.Entity(10*int(s)+k), model.TxnID(100*int(s)+k)
			must(submit(eng, model.Read(s, trap)))
			must(submit(eng, model.BeginDeclared(vid, trap)))
			must(submit(eng, model.WriteFinal(vid, trap)))
		}
	}
	if got := retainedTotal(eng); got != 2*perSleeper {
		t.Fatalf("retained = %d, want %d (victims pinned)", got, 2*perSleeper)
	}
	// Idle transactions, begun and aborted, bring the shard to one
	// termination before the sweep its kept list asks for.
	sh := eng.shards[0]
	idle := model.TxnID(1000)
	for ; sh.sched.Terminations()-sh.sweptTerm < sh.sweptKept-1; idle++ {
		must(submit(eng, model.BeginDeclared(idle, 0)))
		if !eng.Abort(idle) {
			t.Fatalf("abort of idle T%d found nothing", idle)
		}
	}
	if n := eng.govern(2); n != 2 {
		t.Fatalf("govern reaped %d, want 2 (the first reap's run swept its own hostages)", n)
	}
	if got := retainedTotal(eng); got != 0 {
		t.Fatalf("retained after the pass = %d, want 0", got)
	}
}

// TestGovernorRequiresPolicy: a watermark without a deletion policy is
// inert — reaping would free nothing (nogc never sweeps), so no shard ever
// asks for a pass and govern refuses to reap.
func TestGovernorRequiresPolicy(t *testing.T) {
	eng := New(Config{Shards: 1, RetentionWatermark: 1})
	defer eng.Close()
	for id := model.TxnID(1); id <= 4; id++ {
		// Straight on the shard: no door runs, so no submitter claims a
		// request a run might make.
		for _, st := range []model.Step{model.BeginDeclared(id, 0), model.WriteFinal(id, 0)} {
			if res := applyOnShard(eng, 0, st); !res.Accepted() {
				t.Fatalf("%v: %v", st, res.Err)
			}
		}
	}
	if n := eng.govern(1); n != 0 {
		t.Fatalf("govern without a policy reaped %d, want 0", n)
	}
	// Every run has ended once Close returns, so every request a run could
	// have made is visible.
	eng.Close()
	if eng.govWanted.Load() {
		t.Fatal("a shard asked for a governor pass without a deletion policy")
	}
}

// TestGovernorWaitsForTraffic pins the governor's clockless trigger. A
// sleeper traps victims until retention reaches the watermark, the last
// completion applied straight on the shard so no door sees the crossing.
// Then the engine idles: no timer may reap. The first submission after
// that, unrelated to the sleeper, runs the pass the crossing asked for.
func TestGovernorWaitsForTraffic(t *testing.T) {
	const watermark = 4
	eng := New(Config{
		Shards:             1,
		Policy:             func() core.Policy { return core.GreedyC1{} },
		RetentionWatermark: watermark,
	})
	defer eng.Close()
	must := func(res Result) {
		t.Helper()
		if !res.Accepted() {
			t.Fatalf("%v: %v (%v)", res.Step, res.Outcome(), res.Err)
		}
	}
	must(submit(eng, model.BeginDeclared(1, 0)))
	for k := 1; k <= watermark; k++ {
		trap, vid := model.Entity(k), model.TxnID(100+k)
		must(submit(eng, model.Read(1, trap)))
		must(submit(eng, model.BeginDeclared(vid, trap)))
		if k < watermark {
			must(submit(eng, model.WriteFinal(vid, trap)))
		} else {
			must(applyOnShard(eng, 0, model.WriteFinal(vid, trap)))
		}
	}
	if got := retainedTotal(eng); got != watermark {
		t.Fatalf("retained = %d, want %d (victims pinned)", got, watermark)
	}

	time.Sleep(20 * time.Millisecond)
	if s := eng.Stats(); s.Reaped != 0 {
		t.Fatalf("an idle engine reaped %d stragglers", s.Reaped)
	}

	// Unrelated transactions on fresh entities: each is deleted at its own
	// sweep, so only the pass can bring retention down.
	id := model.TxnID(1000)
	for ; id < 1064 && eng.Stats().Reaped == 0; id++ {
		x := model.Entity(id)
		must(submit(eng, model.BeginDeclared(id, x)))
		must(submit(eng, model.WriteFinal(id, x)))
	}
	if s := eng.Stats(); s.Reaped != 1 {
		t.Fatalf("after %d unrelated transactions Stats.Reaped = %d, want 1", id-1000, s.Reaped)
	}
	if got := retainedTotal(eng); got >= watermark {
		t.Fatalf("retained after the pass = %d, want < %d", got, watermark)
	}
	if res := submit(eng, model.Read(1, 64)); !errors.Is(res.Err, ErrStragglerAborted) {
		t.Fatalf("sleeper step after the pass: %v, want ErrStragglerAborted", res.Err)
	}
}

// TestReapedSetStaysBounded: remove runs on every BEGIN, so IDs leave the
// reaped memory before the ring wraps over their slots. The ring must then
// overwrite such a slot without keeping any ID past its eviction, and the
// set must still hold the most recent reapedRemember reaps.
func TestReapedSetStaysBounded(t *testing.T) {
	var r reapedSet
	for id := model.TxnID(1); id <= reapedRemember; id++ {
		r.add(id)
	}
	r.remove(reapedRemember / 2)
	last := model.TxnID(4 * reapedRemember)
	for id := model.TxnID(reapedRemember + 1); id <= last; id++ {
		r.add(id)
		if len(r.ids) > reapedRemember {
			t.Fatalf("after adding T%d the set remembers %d IDs, bound %d", id, len(r.ids), reapedRemember)
		}
	}
	for id := last - reapedRemember + 1; id <= last; id++ {
		if !r.contains(id) {
			t.Fatalf("T%d, among the last %d reaps, is forgotten", id, reapedRemember)
		}
	}
}

// retainedTotal sums the per-shard retained completed-transaction counts,
// asking each scheduler under its shard's lock. The lock-free
// Gauges().Retained trails the scheduler by the run in progress, so
// reading it right after a submission returns races other submitters.
func retainedTotal(e *Engine) int64 {
	var total int64
	for _, sh := range e.shards {
		sh.mu.Lock()
		total += int64(sh.sched.NumCompleted())
		sh.mu.Unlock()
	}
	return total
}
