package engine

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestSubmitBatchSemantics pins SubmitBatchInto to SubmitCtx's semantics
// over a mixed pipeline: two interleaved local transactions, a
// cross-partition transaction (immediate sub-transaction steps +
// two-phase-commit final), a step for an unknown transaction — and, since
// 2PC, the concurrent local T2 surviving the cross commit.
func TestSubmitBatchSemantics(t *testing.T) {
	eng := New(Config{Shards: 4})
	defer eng.Close()

	steps := []model.Step{
		model.BeginDeclared(1, 0, 4), // shard 0 local
		model.BeginDeclared(2, 1),    // shard 1 local
		model.Read(1, 4),
		model.Read(2, 1),
		model.BeginDeclared(3, 2, 3), // cross partitions 2,3
		model.Read(3, 2),             // applies on shard 2 immediately
		model.WriteFinal(1, 0),
		model.WriteFinal(3, 3), // two-phase commit on shards 2 and 3
		model.Read(99, 0),      // unknown transaction
		model.WriteFinal(2, 1), // T2 survived the cross commit
	}
	results := eng.SubmitBatchInto(nil, steps)
	if len(results) != len(steps) {
		t.Fatalf("got %d results for %d steps", len(results), len(steps))
	}
	want := []Outcome{
		OutcomeAccepted, OutcomeAccepted, OutcomeAccepted, OutcomeAccepted,
		OutcomeAccepted, OutcomeAccepted, OutcomeAccepted, OutcomeAccepted,
		OutcomeRejected, OutcomeAccepted,
	}
	for i, w := range want {
		if results[i].Outcome() != w {
			t.Fatalf("step %d (%v): outcome %v (err=%v), want %v",
				i, steps[i], results[i].Outcome(), results[i].Err, w)
		}
	}
	if results[6].CompletedTxn != 1 || results[7].CompletedTxn != 3 || results[9].CompletedTxn != 2 {
		t.Fatalf("completions: %v / %v / %v, want T1 / T3 / T2",
			results[6].CompletedTxn, results[7].CompletedTxn, results[9].CompletedTxn)
	}
	if !errors.Is(results[8].Err, ErrTxnAborted) {
		t.Fatalf("unknown-txn step err = %v, want ErrTxnAborted", results[8].Err)
	}
	s := eng.Stats()
	if s.Completed != 3 {
		t.Fatalf("Completed = %d, want 3", s.Completed)
	}
	if s.Prepares != 2 {
		t.Fatalf("Prepares = %d, want 2 (one per participant of T3)", s.Prepares)
	}
}

// TestSubmitBatchMisroute: a foreign access mid-batch aborts the
// transaction exactly as per-step submission would, and the batch
// continues past it.
func TestSubmitBatchMisroute(t *testing.T) {
	eng := New(Config{Shards: 4})
	defer eng.Close()
	results := eng.SubmitBatchInto(nil, []model.Step{
		model.BeginDeclared(1, 0),
		model.Read(1, 0),
		model.Read(1, 3), // partition 3: misroute, aborts T1
		model.Read(1, 0), // now unknown
		model.BeginDeclared(2, 0),
		model.WriteFinal(2, 0),
	})
	if results[2].Outcome() != OutcomeRejected || !errors.Is(results[2].Err, ErrMisroute) {
		t.Fatalf("misroute step: %v (%v)", results[2].Outcome(), results[2].Err)
	}
	if results[3].Outcome() != OutcomeRejected || !errors.Is(results[3].Err, ErrTxnAborted) {
		t.Fatalf("post-abort step: %v (%v)", results[3].Outcome(), results[3].Err)
	}
	if !results[5].Accepted() || results[5].CompletedTxn != 2 {
		t.Fatalf("T2 final: %v, CompletedTxn=%v", results[5].Outcome(), results[5].CompletedTxn)
	}
}

// TestSubmitBatchDuplicateBegin: a BEGIN reusing a still-routed ID errors
// without disturbing the live transaction, and a BEGIN whose ID collides
// with a retained completed transaction fails without poisoning the route
// (the SubmitBatchInto analogue of TestReusedIDDoesNotPoisonRoute).
func TestSubmitBatchDuplicateBegin(t *testing.T) {
	eng := New(Config{Shards: 2}) // nogc: completed txns stay retained
	defer eng.Close()
	results := eng.SubmitBatchInto(nil, []model.Step{
		model.BeginDeclared(4, 0),
		model.BeginDeclared(4, 0), // duplicate while live
		model.WriteFinal(4, 0),
		model.BeginDeclared(4, 0), // reuse of a retained completed ID
		model.Read(4, 0),          // must be unknown, not routed
	})
	if results[1].Outcome() != OutcomeError {
		t.Fatalf("duplicate live begin: %v, want error", results[1].Outcome())
	}
	if !results[2].Accepted() || results[2].CompletedTxn != 4 {
		t.Fatalf("final: %v", results[2].Outcome())
	}
	if results[3].Outcome() != OutcomeError {
		t.Fatalf("retained-ID begin: %v, want error", results[3].Outcome())
	}
	// The read was pipelined in the same shard run as the failed BEGIN, so
	// it reaches the scheduler and reports its protocol error (documented
	// batch divergence: per-step clients would see rejected/ErrTxnAborted).
	if results[4].Outcome() != OutcomeError {
		t.Fatalf("read after failed reuse: %v (%v), want error", results[4].Outcome(), results[4].Err)
	}
	// What matters is that the failed BEGIN did not poison the route: a
	// later per-step submission must see the ID as unknown, not routed.
	res := submit(eng, model.Read(4, 0))
	if res.Outcome() != OutcomeRejected || !errors.Is(res.Err, ErrTxnAborted) {
		t.Fatalf("read after batch: %v (%v), want rejected/ErrTxnAborted", res.Outcome(), res.Err)
	}
}

// TestSubmitBatchConcurrentCSR hammers SubmitBatchInto from many goroutines —
// eight steps of a workload generator per batch — with mixed local and
// cross-partition traffic and a GC policy, then replays the accepted
// subschedule through the offline CSR referee. Run under -race this is
// the batch path's data-race and safety oracle.
func TestSubmitBatchConcurrentCSR(t *testing.T) {
	log := trace.NewSafeLog()
	eng := New(Config{
		Shards: 4,
		Policy: func() core.Policy { return core.GreedyC1{} },
		Log:    log,
	})
	defer eng.Close()

	const drivers = 4
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			gen := workload.New(workload.Config{
				Entities:         64,
				Txns:             150,
				MaxActive:        4,
				Shards:           4,
				CrossFrac:        0.05,
				DeclareFootprint: true,
				BaseTxnID:        model.TxnID(d * 1_000_000),
				RestartAborted:   true,
				Seed:             int64(500 + d),
			})
			driveBatches(eng, gen, 8, false)
		}(d)
	}
	wg.Wait()

	if err := log.CheckAcceptedCSR(); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.Completed == 0 || s.Deleted == 0 {
		t.Fatalf("batched run did no work: %+v", s)
	}
	if s.CrossTxns == 0 {
		t.Error("no cross-partition transactions exercised through batches")
	}
	// Logical engine counters vs per-participant scheduler counters: the
	// per-shard sums dominate whenever cross transactions ran (one
	// sub-transaction per participant).
	if s.Accepted > s.Merged.Accepted || s.Completed > s.Merged.Completed {
		t.Fatalf("engine/scheduler counter mismatch: %+v vs %+v", s, s.Merged)
	}
	if len(s.QueueDepth) != 4 {
		t.Fatalf("QueueDepth has %d entries, want 4", len(s.QueueDepth))
	}
	for i, d := range s.QueueDepth {
		if d != 0 {
			t.Errorf("shard %d: queue depth %d after quiescence, want 0", i, d)
		}
	}
	t.Logf("batched: %d accepted, %d completed, %d deleted, %d cross, %d prepares, %d cross-aborts",
		s.Accepted, s.Completed, s.Deleted, s.CrossTxns, s.Prepares, s.CrossAborts)
}

// TestSubmitBatchEquivalentToPerStep replays the same single-threaded
// workload through per-step SubmitCtx and through SubmitBatchInto and demands
// identical Results and identical engine counters (concurrency aside,
// batching is pure plumbing). The stream spans four shards with a fifth of
// its transactions cross-partition, and every 23rd read is sent one entity
// over — a foreign partition — so cross BEGINs, cross reads, two-phase
// commits and both kinds of misroute go through both doors.
func TestSubmitBatchEquivalentToPerStep(t *testing.T) {
	run := func(submit func(*Engine, model.Step) Result) ([]Result, Stats) {
		eng := New(Config{
			Shards: 4,
			Policy: func() core.Policy { return core.GreedyC1{} },
		})
		defer eng.Close()
		gen := workload.New(workload.Config{
			Entities: 48, Txns: 300, MaxActive: 4,
			Shards: 4, CrossFrac: 0.2, DeclareFootprint: true, Seed: 9,
		})
		var out []Result
		for reads := 0; ; {
			st, ok := gen.Next()
			if !ok {
				break
			}
			if st.Kind == model.KindRead {
				if reads++; reads%23 == 0 {
					st.Entity++
				}
			}
			res := submit(eng, st)
			out = append(out, res)
			if !res.Accepted() {
				gen.NotifyAbort(st.Txn)
			}
		}
		return out, eng.Stats()
	}
	perStep, sa := run(submit)
	// Batch of one: same information flow as per-step, so the streams stay
	// step-for-step comparable even under aborts.
	batched, sb := run(func(eng *Engine, st model.Step) Result { return eng.SubmitBatchInto(nil, []model.Step{st})[0] })

	if len(perStep) != len(batched) {
		t.Fatalf("step counts diverged: %d vs %d", len(perStep), len(batched))
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for i, a := range perStep {
		b := batched[i]
		if a.Outcome() != b.Outcome() || errText(a.Err) != errText(b.Err) || a.Aborted != b.Aborted || a.CompletedTxn != b.CompletedTxn {
			t.Fatalf("result %d (%v) diverged:\n per-step %v aborted=%v completed=%v err=%v\n batched  %v aborted=%v completed=%v err=%v",
				i, a.Step, a.Outcome(), a.Aborted, a.CompletedTxn, a.Err, b.Outcome(), b.Aborted, b.CompletedTxn, b.Err)
		}
	}
	type counters struct{ sub, acc, rej, comp, abort, cross, prep, crossAbort, misroute int64 }
	of := func(s Stats) counters {
		return counters{s.Submitted, s.Accepted, s.Rejected, s.Completed, s.Aborted, s.CrossTxns, s.Prepares, s.CrossAborts, s.Misroutes}
	}
	if of(sa) != of(sb) {
		t.Fatalf("counters diverged: per-step %+v vs batched %+v", of(sa), of(sb))
	}
	if sa.CrossTxns == 0 || sa.Prepares == 0 || sa.CrossAborts == 0 || sa.Misroutes == 0 || sa.Rejected == sa.Misroutes {
		t.Fatalf("stream did not exercise cross, 2PC, misroute and cycle paths: %+v", of(sa))
	}
}

// interleavedBatch returns 64 steps: sixteen transactions T base+1 …
// base+16 over a 4-shard engine, shuffled together by rng (each
// transaction's own steps stay in order). Transaction j is homed on shard
// j mod 4. The first cross of them span their home shard and the next, on
// two entities no other transaction touches: a BEGIN, a read of each, and a
// final write of both. The rest are partition-local: a BEGIN declaring two
// entities of its partition, a read of each and a final write of the first.
// With cross = 0 no step in it is one the engine answers without a shard,
// so the batch door sends it as one window.
func interleavedBatch(rng *rand.Rand, base model.TxnID, cross int) []model.Step {
	const shards, txns, perPart = 4, 16, 1024
	var plans [txns][]model.Step
	for j := range plans {
		id := base + model.TxnID(j+1)
		x := model.Entity(j%shards + shards*rng.Intn(perPart-1))
		y := x + shards
		if j < cross {
			a := model.Entity(shards*perPart + 2*shards*j + j%shards)
			plans[j] = []model.Step{model.BeginDeclared(id, a, a+1), model.Read(id, a), model.Read(id, a+1), model.WriteFinal(id, a, a+1)}
			continue
		}
		plans[j] = []model.Step{model.BeginDeclared(id, x, y), model.Read(id, x), model.Read(id, y), model.WriteFinal(id, x)}
	}
	steps := make([]model.Step, 0, 4*txns)
	for len(steps) < cap(steps) {
		if j := rng.Intn(txns); len(plans[j]) > 0 {
			steps = append(steps, plans[j][0])
			plans[j] = plans[j][1:]
		}
	}
	return steps
}

// TestSubmitBatchWindowRoundTrips: a 64-step batch interleaving sixteen
// local transactions over four shards, with nothing in it that settles the
// window early, costs one visit per shard, not one per same-shard run.
func TestSubmitBatchWindowRoundTrips(t *testing.T) {
	var trips atomic.Int64
	testHookRoundTrip = func(*shard) { trips.Add(1) }
	defer func() { testHookRoundTrip = nil }()
	eng := New(Config{Shards: 4, Policy: func() core.Policy { return core.GreedyC1{} }})
	defer eng.Close()

	steps := interleavedBatch(rand.New(rand.NewSource(1)), 0, 0)
	results := eng.SubmitBatchInto(nil, steps)
	if n := trips.Load(); n > 4 {
		t.Fatalf("%d shard visits for one 64-step window over 4 shards, want at most 4", n)
	}
	completed := 0
	for i, r := range results {
		if !r.Accepted() {
			t.Fatalf("step %d (%v): %v", i, r.Step, r.Err)
		}
		if r.CompletedTxn != model.NoTxn {
			completed++
		}
	}
	if completed != 16 {
		t.Fatalf("%d transactions completed, want 16", completed)
	}
}

// TestSubmitBatchWindowMatchesPerStep sends one pre-materialised local-only
// stream over four shards through the per-step door and, 64 steps at a
// time, through the batch door, whose windows fan out to several shards at
// once. The stream has no abort feedback, so the victims of its many cycles
// keep their later steps, which land behind their own abort; every 23rd
// read is shifted into a foreign partition (misroutes, some of them behind
// their own abort too); and one BEGIN comes again while its transaction is
// live. Whole Results and the nine counters of
// TestSubmitBatchEquivalentToPerStep must agree.
func TestSubmitBatchWindowMatchesPerStep(t *testing.T) {
	gen := workload.New(workload.Config{
		Entities: 32, Txns: 400, MaxActive: 16,
		Shards: 4, DeclareFootprint: true, Seed: 27,
	})
	var stream []model.Step
	for reads := 0; ; {
		st, ok := gen.Next()
		if !ok {
			break
		}
		if st.Kind == model.KindRead {
			if reads++; reads%23 == 0 {
				st.Entity++
			}
		}
		stream = append(stream, st)
	}
	const dup = 5 // stream[0] is a BEGIN; its transaction is still live here
	stream = slices.Insert(stream, dup, stream[0])
	// The random stream seldom puts a misroute right behind its own abort in
	// one window, so its last window gets one for sure, on entities the
	// stream never touches: T1 reads 32, T2 writes 32 and 36 (T1 → T2), T1's
	// read of 36 closes the cycle, and T1's next read strays to shard 1,
	// while T3 keeps shard 3 in the same window.
	const t1, t2, t3 = 1 << 20, 1<<20 + 1, 1<<20 + 2
	stream = append(stream,
		model.BeginDeclared(t1, 32, 36), model.BeginDeclared(t2, 32, 36), model.BeginDeclared(t3, 35),
		model.Read(t1, 32), model.WriteFinal(t2, 32, 36), model.Read(t3, 35),
		model.Read(t1, 36), model.Read(t1, 33), model.WriteFinal(t3, 35))

	run := func(submit func(*Engine) []Result) ([]Result, Stats) {
		eng := New(Config{
			Shards: 4,
			Policy: func() core.Policy { return core.GreedyC1{} },
		})
		defer eng.Close()
		return submit(eng), eng.Stats()
	}
	perStep, sa := run(func(eng *Engine) []Result {
		out := make([]Result, 0, len(stream))
		for _, st := range stream {
			out = append(out, submit(eng, st))
		}
		return out
	})
	batched, sb := run(func(eng *Engine) []Result {
		// The first batch takes the remainder, so the last one is the
		// stream's last 64 steps, the hand-made tail whole.
		out := eng.SubmitBatchInto(nil, stream[:len(stream)%64])
		for i := len(stream) % 64; i < len(stream); i += 64 {
			out = eng.SubmitBatchInto(out, stream[i:i+64])
		}
		return out
	})

	if len(perStep) != len(stream) || len(batched) != len(stream) {
		t.Fatalf("%d steps: %d per-step results, %d batched", len(stream), len(perStep), len(batched))
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	var cycles, dead int
	for i, a := range perStep {
		b := batched[i]
		if a.Outcome() != b.Outcome() || errText(a.Err) != errText(b.Err) || a.Aborted != b.Aborted || a.CompletedTxn != b.CompletedTxn {
			t.Fatalf("result %d (%v) diverged:\n per-step %v aborted=%v completed=%v err=%v\n batched  %v aborted=%v completed=%v err=%v",
				i, a.Step, a.Outcome(), a.Aborted, a.CompletedTxn, a.Err, b.Outcome(), b.Aborted, b.CompletedTxn, b.Err)
		}
		switch {
		case errors.Is(a.Err, ErrCycle):
			cycles++
		case errors.Is(a.Err, ErrTxnAborted):
			dead++
		}
	}
	type counters struct{ sub, acc, rej, comp, abort, cross, prep, crossAbort, misroute int64 }
	of := func(s Stats) counters {
		return counters{s.Submitted, s.Accepted, s.Rejected, s.Completed, s.Aborted, s.CrossTxns, s.Prepares, s.CrossAborts, s.Misroutes}
	}
	if of(sa) != of(sb) {
		t.Fatalf("counters diverged: per-step %+v vs batched %+v", of(sa), of(sb))
	}
	if !errors.Is(perStep[dup].Err, ErrProtocol) || cycles == 0 || dead == 0 || sa.Misroutes == 0 || sa.CrossTxns != 0 {
		t.Fatalf("stream did not exercise a live duplicate BEGIN (%v), cycles (%d), steps behind their own abort (%d) and misroutes, local only: %+v",
			perStep[dup].Err, cycles, dead, of(sa))
	}
	if tail := perStep[len(perStep)-3:]; tail[0].Aborted != t1 || !errors.Is(tail[1].Err, ErrTxnAborted) || tail[2].CompletedTxn != t3 {
		t.Fatalf("tail: T1's read %v, its stray read %v, T3's write completed %v; want a cycle, a dead step, T3",
			tail[0].Err, tail[1].Err, tail[2].CompletedTxn)
	}
}

// TestSubmitBatchCrossMatchesPerStep sends one pre-materialised stream over
// four shards through the per-step door and, batch by batch, through the
// batch door, where cross reads ride the windows. The local part is a
// random stream without abort feedback (cycles, steps behind their own
// abort); spliced into it, each inside one batch, are cross transactions on
// entities nothing else touches, so their verdicts cannot depend on
// cross-shard timing. Every fourth one is walked into a cycle by a local
// partner on its first participant: its second read there is rejected, its
// next read there lands in the same window behind the rejection, and its
// read on the other participant comes later in the same batch. The others
// read on both participants and commit. Whole Results and the nine counters
// must agree.
func TestSubmitBatchCrossMatchesPerStep(t *testing.T) {
	gen := workload.New(workload.Config{
		Entities: 32, Txns: 300, MaxActive: 12,
		Shards: 4, DeclareFootprint: true, Seed: 28,
	})
	var local []model.Step
	for {
		st, ok := gen.Next()
		if !ok {
			break
		}
		local = append(local, st)
	}
	// cross returns the k-th spliced transaction: T (cross over shards s and
	// s+1 mod 4, on entities between 64+16k and 64+16k+7) and, when doomed,
	// its local partner L.
	cross := func(k int) []model.Step {
		tx, l := model.TxnID(1<<20+2*k), model.TxnID(1<<20+2*k+1)
		s := k % 4
		a := model.Entity(64 + 16*k + s) // a and b on shard s, c on shard s+1
		b, c := a+4, a+1
		if k%4 != 0 {
			return []model.Step{
				model.BeginDeclared(tx, a, c), model.Read(tx, a), model.Read(tx, a),
				model.Read(tx, c), model.WriteFinal(tx, a, c),
			}
		}
		return []model.Step{
			model.BeginDeclared(tx, a, b, c), model.BeginDeclared(l, a, b),
			model.Read(tx, a), model.WriteFinal(l, a, b), // T → L
			model.Read(tx, b), // L → T closes the cycle: T's read is rejected
			model.Read(tx, a), // behind the rejection, same shard, same window
			model.Read(tx, c), // the other participant, later in the batch
			model.WriteFinal(tx, a, c),
		}
	}
	var batches [][]model.Step
	for k := 0; len(local) > 0; k++ {
		n := min(len(local), 40+k%17)
		batch := slices.Clone(local[:n])
		local = local[n:]
		batch = slices.Insert(batch, (7*k)%(n+1), cross(k)...)
		batches = append(batches, batch)
	}

	run := func(submit func(*Engine) []Result) ([]Result, Stats) {
		eng := New(Config{
			Shards: 4,
			Policy: func() core.Policy { return core.GreedyC1{} },
		})
		defer eng.Close()
		return submit(eng), eng.Stats()
	}
	perStep, sa := run(func(eng *Engine) []Result {
		var out []Result
		for _, batch := range batches {
			for _, st := range batch {
				out = append(out, submit(eng, st))
			}
		}
		return out
	})
	batched, sb := run(func(eng *Engine) []Result {
		var out []Result
		for _, batch := range batches {
			out = eng.SubmitBatchInto(out, batch)
		}
		return out
	})

	if len(perStep) != len(batched) {
		t.Fatalf("%d per-step results, %d batched", len(perStep), len(batched))
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	var crossCycles, crossDead int
	for i, a := range perStep {
		b := batched[i]
		if a.Outcome() != b.Outcome() || errText(a.Err) != errText(b.Err) || a.Aborted != b.Aborted || a.CompletedTxn != b.CompletedTxn {
			t.Fatalf("result %d (%v) diverged:\n per-step %v aborted=%v completed=%v err=%v\n batched  %v aborted=%v completed=%v err=%v",
				i, a.Step, a.Outcome(), a.Aborted, a.CompletedTxn, a.Err, b.Outcome(), b.Aborted, b.CompletedTxn, b.Err)
		}
		if a.Step.Txn >= 1<<20 && a.Step.Txn%2 == 0 && a.Step.Kind == model.KindRead {
			switch {
			case errors.Is(a.Err, ErrCycle):
				crossCycles++
			case errors.Is(a.Err, ErrTxnAborted):
				crossDead++
			}
		}
	}
	type counters struct{ sub, acc, rej, comp, abort, cross, prep, crossAbort, misroute int64 }
	of := func(s Stats) counters {
		return counters{s.Submitted, s.Accepted, s.Rejected, s.Completed, s.Aborted, s.CrossTxns, s.Prepares, s.CrossAborts, s.Misroutes}
	}
	if of(sa) != of(sb) {
		t.Fatalf("counters diverged: per-step %+v vs batched %+v", of(sa), of(sb))
	}
	doomed := (len(batches) + 3) / 4
	if crossCycles != doomed || crossDead != 2*doomed || sa.CrossAborts != int64(doomed) || sa.CrossTxns != int64(len(batches)) {
		t.Fatalf("%d batches: %d cross reads rejected, %d behind them, %d cross aborts of %d cross transactions; want %d, %d, %d",
			len(batches), crossCycles, crossDead, sa.CrossAborts, sa.CrossTxns, doomed, 2*doomed, doomed)
	}
}

// TestCrossReadRacesAbort: Engine.Abort lands on cross transactions while
// their reads ride batch windows, half of them also racing a read the shard
// rejects (a local partner closes a cycle) and the other half their own
// two-phase commit. Every step must be answered in its place and never as a
// protocol error; every cross transaction ends exactly once — committed, or
// aborted by whichever of Abort, the rejected read and the client's own
// closing Abort got there first — so CrossAborts counts each aborted one
// once; and no prepared pin or registry entry outlives the run.
func TestCrossReadRacesAbort(t *testing.T) {
	eng := New(Config{Shards: 4, Policy: func() core.Policy { return core.GreedyC1{} }})
	defer eng.Close()
	const clients, rounds = 3, 150
	victims := make(chan model.TxnID, clients*rounds)
	racerDone := make(chan struct{})
	var won atomic.Int64
	go func() {
		defer close(racerDone)
		rng := rand.New(rand.NewSource(1))
		for id := range victims {
			for n := rng.Intn(8); n > 0; n-- {
				runtime.Gosched()
			}
			if eng.Abort(id) {
				won.Add(1)
			}
		}
	}()
	var committed, begun, dead atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var results []Result
			for r := 0; r < rounds; r++ {
				k := c*rounds + r
				tx, l := model.TxnID(2*k+2), model.TxnID(2*k+3)
				s := k % 4
				a := model.Entity(16*k + s) // a and b on shard s, c on shard s+1
				b, x := a+4, a+1
				steps := []model.Step{
					model.BeginDeclared(tx, a, b, x), model.BeginDeclared(l, a, b),
					model.Read(tx, a), model.Read(tx, x),
				}
				if k%2 == 0 {
					steps = append(steps,
						model.WriteFinal(l, a, b), // T → L
						model.Read(tx, b),         // L → T: a cycle, T's read is rejected
						model.Read(tx, a), model.Read(tx, x))
				} else {
					steps = append(steps, model.Read(tx, a), model.Read(tx, x),
						model.WriteFinal(tx, a, x), model.WriteFinal(l, a, b))
				}
				victims <- tx
				results = eng.SubmitBatchInto(results[:0], steps)
				for i, res := range results {
					st := steps[i]
					if res.Step.Txn != st.Txn || res.Step.Kind != st.Kind || res.Step.Entity != st.Entity {
						t.Errorf("result %d answers %v, want %v", i, res.Step, st)
						return
					}
					if res.Outcome() == OutcomeError {
						t.Errorf("%v: %v", st, res.Err)
						return
					}
					if st.Txn == tx && errors.Is(res.Err, ErrTxnAborted) {
						dead.Add(1)
					}
				}
				if results[0].Accepted() {
					begun.Add(1)
				}
				if res := results[len(results)-2]; res.CompletedTxn == tx {
					committed.Add(1)
				}
				eng.Abort(tx) // a no-op unless T is still live
				eng.Abort(l)
			}
		}(c)
	}
	wg.Wait()
	close(victims)
	<-racerDone
	if t.Failed() {
		return
	}
	t.Logf("Abort won %d races; %d steps of a cross transaction answered ErrTxnAborted", won.Load(), dead.Load())

	s := eng.Stats()
	total := int64(clients * rounds)
	if s.CrossTxns != begun.Load() || s.CrossAborts != total-committed.Load() {
		t.Fatalf("%d cross BEGINs accepted, %d committed of %d: Stats has %d begun, %d cross aborts, want %d",
			begun.Load(), committed.Load(), total, s.CrossTxns, s.CrossAborts, total-committed.Load())
	}
	for i, n := range s.PreparedByShard {
		if n != 0 {
			t.Errorf("shard %d still pins %d prepared sub-transactions", i, n)
		}
	}
	// A committed transaction leaves the registry once every participant
	// has reported it clean, on the shards' own time: poll.
	for deadline := time.Now().Add(10 * time.Second); ; eng.Stats() {
		eng.registry.mu.Lock()
		n := len(eng.registry.txns)
		eng.registry.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("registry still tracks %d transactions", n)
		}
	}
}

// TestSubmitBatchCloseRacesWindows: Close lands while four clients fan
// multi-shard windows out. Every step is answered in its place, every
// ErrClosed names its step in closedResult's words, and no batch hangs.
func TestSubmitBatchCloseRacesWindows(t *testing.T) {
	for round := 0; round < 20; round++ {
		eng := New(Config{Shards: 4, Policy: func() core.Policy { return core.GreedyC1{} }})
		const clients = 4
		var wg sync.WaitGroup
		started := make(chan struct{}, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*clients + c)))
				var results []Result
				for b := 0; ; b++ {
					steps := interleavedBatch(rng, model.TxnID(c<<24|b<<5), 0)
					results = eng.SubmitBatchInto(results[:0], steps)
					if b == 0 {
						started <- struct{}{}
					}
					if len(results) != len(steps) {
						t.Errorf("%d results for %d steps", len(results), len(steps))
						return
					}
					closed := false
					for i, r := range results {
						st := steps[i]
						if r.Step.Txn != st.Txn || r.Step.Kind != st.Kind || r.Step.Entity != st.Entity {
							t.Errorf("result %d answers %v, want %v", i, r.Step, st)
							return
						}
						if errors.Is(r.Err, ErrClosed) {
							closed = true
							if want := closedResult(st).Err.Error(); r.Err.Error() != want {
								t.Errorf("result %d: %q, want %q", i, r.Err, want)
								return
							}
						}
					}
					if closed {
						return
					}
				}
			}(c)
		}
		for c := 0; c < clients; c++ {
			<-started
		}
		eng.Close()
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: a batch hung across Close", round)
		}
	}
}

// TestSubmitDoorsDoNotAllocate: a partition-local transaction (BEGIN, two
// reads, final write) costs no allocation through either door in steady
// state. The per-step door sends each step as a one-step window whose steps
// and out arrays live on SubmitPriority's stack. They stay there only
// because request holds no model.Step by value: a step's Entities leak
// through applyOne's error paths, escape analysis treats the request as one
// value, and a step field would move both arrays to the heap, two
// allocations a step, 8 a transaction.
func TestSubmitDoorsDoNotAllocate(t *testing.T) {
	eng := New(Config{Shards: 4, Policy: func() core.Policy { return core.GreedyC1{} }})
	defer eng.Close()
	txn := []model.Step{model.BeginDeclared(0, 0, 4), model.Read(0, 0), model.Read(0, 4), model.WriteFinal(0, 0)}
	next := model.TxnID(0)
	renumber := func() {
		next++
		for i := range txn {
			txn[i].Txn = next
		}
	}
	ctx := context.Background()
	perStep := func() {
		renumber()
		for _, st := range txn {
			if res := eng.SubmitCtx(ctx, st); !res.Accepted() {
				t.Fatalf("%v: %v", st, res.Err)
			}
		}
	}
	dst := make([]Result, 0, len(txn))
	batched := func() {
		renumber()
		dst = eng.SubmitBatchInto(dst[:0], txn)
		if dst[3].CompletedTxn != next {
			t.Fatalf("batched txn %v did not complete: %v", next, dst[3].Err)
		}
	}
	for name, door := range map[string]func(){"SubmitCtx": perStep, "SubmitBatchInto": batched} {
		for i := 0; i < 100; i++ {
			door() // warm the pools and arenas
		}
		if n := testing.AllocsPerRun(200, door); n != 0 {
			t.Errorf("%s: %v allocs per 4-step transaction, want 0", name, n)
		}
	}
}
