package engine

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// The reference side of the cross-clean differential: the between-batch
// registry upkeep as it was before the watched witnesses — scan the whole
// registry for this shard's debts, materialize every debtor's ancestor
// closure — kept here so the incremental path always has a full scan to be
// held against.

// refPendingClean is the registry scan: the transactions whose sub-node
// shard has committed and not yet reported clean. Caller holds r.mu and
// runs on sh's goroutine.
func refPendingClean(r *crossRegistry, sh *shard) []model.TxnID {
	var ids []model.TxnID
	for id, e := range r.txns {
		i := slices.Index(e.parts, sh.idx)
		if i < 0 || e.clean[i] {
			continue
		}
		if t := sh.sched.Txn(id); t != nil && t.Status == model.StatusCompleted {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// refClean is the full-scan verdict: no sub-node here, or no active
// transaction anywhere in its ancestor closure.
func refClean(sh *shard, id model.TxnID) bool {
	if sh.sched.Txn(id) == nil {
		return true
	}
	for a := range sh.sched.Graph().Ancestors(id) {
		if sh.sched.Status(a) == model.StatusActive {
			return false
		}
	}
	return true
}

// TestCrossCleanDifferential holds the watched-witness upkeep against the
// full scan at every batch end of every shard, under a seeded cross-heavy
// workload with stragglers, cycle rejections, 2PC vetoes, client aborts of
// cross transactions in flight and governor reaps: what each pass reports
// must be exactly what the full scan would report over the same debts, and
// the debts the shard filed as it committed must be exactly what a scan of
// the registry's entries says it owes.
func TestCrossCleanDifferential(t *testing.T) {
	var passes, reports, carried atomic.Int64
	var failed atomic.Bool
	fail := func(format string, args ...any) {
		if failed.CompareAndSwap(false, true) {
			t.Errorf(format, args...)
		}
	}
	debts := meterDebts(4, func(sh *shard, reported []model.TxnID) {
		passes.Add(1)
		reports.Add(int64(len(reported)))
		for _, id := range reported {
			if !refClean(sh, id) {
				fail("shard %d reported T%d clean; the full scan finds an active ancestor", sh.idx, id)
			}
		}
		var mine []model.TxnID
		for _, w := range sh.watch {
			mine = append(mine, w.id)
			if refClean(sh, w.id) {
				fail("shard %d keeps T%d dirty (witness slot %d); the full scan finds it clean", sh.idx, w.id, w.slot)
			}
			if !sh.sched.ActiveAt(w.slot, w.beginSeq) {
				fail("shard %d: T%d's witness at slot %d is not active after the pass", sh.idx, w.id, w.slot)
			}
		}
		carried.Add(int64(len(mine)))
		reg := sh.eng.registry
		reg.mu.Lock()
		defer reg.mu.Unlock()
		slices.Sort(mine)
		want := refPendingClean(reg, sh)
		// A closing engine drops a commit it could not finish, so only then
		// may the shard owe a report the registry no longer waits for.
		owed := mine
		if sh.eng.closed.Load() {
			owed = slices.DeleteFunc(slices.Clone(mine), func(id model.TxnID) bool { return !slices.Contains(want, id) })
		}
		if !slices.Equal(owed, want) {
			fail("shard %d watches %v, entry scan says it owes %v", sh.idx, mine, want)
		}
	})
	defer func() { testHookCrossClean = nil }()

	eng := New(Config{
		Shards:             4,
		Policy:             func() core.Policy { return core.GreedyC1{} },
		RetentionWatermark: 24,
	})
	txns := 500
	if testing.Short() {
		txns = 200
	}
	var wg sync.WaitGroup
	for d := 0; d < 3; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			gen := workload.New(workload.Config{
				Entities: 64, Txns: txns, MaxActive: 6, Shards: 4,
				ReadsMin: 1, ReadsMax: 3, HotFrac: 0.1, HotProb: 0.7,
				CrossFrac: 0.3, CrossShards: 2 + d%2, Straggler: 12,
				DeclareFootprint: true, RestartAborted: true,
				BaseTxnID: model.TxnID(d+1) << 32, Seed: int64(1800 + d),
			})
			driveBatches(eng, gen, d == 2)
		}(d)
	}
	wg.Wait()
	st := eng.Stats()
	// Quiet now: every debt gets reported and every entry retired within a
	// few rounds of housekeeping.
	left := registryResidue(eng, debts)
	eng.Close()

	if failed.Load() {
		t.FailNow()
	}
	if left != 0 {
		t.Fatalf("%d registry entries and debts left after the engine went quiet", left)
	}
	if st.CrossTxns == 0 || st.CrossAborts == 0 || st.Reaped == 0 || st.Merged.Rejected == 0 {
		t.Fatalf("workload too tame: %d cross, %d cross aborts, %d reaped, %d rejected", st.CrossTxns, st.CrossAborts, st.Reaped, st.Merged.Rejected)
	}
	if reports.Load() == 0 || carried.Load() == 0 {
		t.Fatalf("upkeep unexercised: %d reports, %d entries carried dirty across %d passes", reports.Load(), carried.Load(), passes.Load())
	}
	t.Logf("%d passes, %d reports, %d dirty entries carried, %d cross commits, %d cross aborts, %d reaped",
		passes.Load(), reports.Load(), carried.Load(), st.CrossTxns-st.CrossAborts, st.CrossAborts, st.Reaped)
}

// driveBatches feeds gen to the engine sixteen steps per SubmitBatch, the
// way the benchmark's embedded door does. With abortSome it also plays the
// impatient client: now and then it aborts a cross transaction it has in
// flight, which is a 2PC ABORT on every participant.
func driveBatches(eng *Engine, gen *workload.Gen, abortSome bool) {
	steps := make([]model.Step, 0, 16)
	var results []Result
	for n := 0; ; n++ {
		steps = steps[:0]
		for len(steps) < cap(steps) {
			st, ok := gen.Next()
			if !ok {
				break
			}
			steps = append(steps, st)
		}
		if len(steps) == 0 {
			return
		}
		results = eng.SubmitBatchInto(results[:0], steps)
		for i, r := range results {
			if r.Err != nil {
				gen.NotifyAbort(steps[i].Txn)
			}
		}
		if abortSome && n%5 == 0 {
			for i, st := range steps {
				if st.Kind == model.KindBegin && len(st.Entities) > 1 && results[i].Err == nil && eng.Abort(st.Txn) {
					gen.NotifyAbort(st.Txn)
					break
				}
			}
		}
	}
}

// TestCrossCleanProportional counts the work. One live straggler on shard 0
// is an ancestor of K committed cross sub-transactions there, so shard 0
// owes the registry K cleanliness reports it cannot yet make. While the
// straggler lives each debt is searched exactly once, when it arrives; a
// batch that terminates nothing then runs no ancestor search and never takes
// the registry mutex (the test holds it throughout); and ending the
// straggler — by completion, which retires the witness, or by abort, which
// severs paths — re-examines each debt exactly once and clears them all.
func TestCrossCleanProportional(t *testing.T) {
	for _, ending := range []string{"complete", "abort"} {
		t.Run(ending, func(t *testing.T) { crossCleanProportional(t, ending == "abort") })
	}
}

func crossCleanProportional(t *testing.T, abort bool) {
	const K = 64
	// pass is shard 0's state at the end of one reportCrossClean.
	type pass struct {
		progress int64 // steps accepted plus transactions aborted so far
		searches int64
		watching int
	}
	seen := make(chan pass, 4096) // more than the passes the test can cause
	testHookCrossClean = func(sh *shard, _ []model.TxnID) {
		if sh.idx == 0 {
			st := sh.sched.Stats()
			seen <- pass{st.Accepted + st.Aborts, sh.witnessSearches, len(sh.watch)}
		}
	}
	defer func() { testHookCrossClean = nil }()

	eng := New(Config{Shards: 2, Policy: func() core.Policy { return core.GreedyC1{} }})
	defer eng.Close()
	// settled returns shard 0's first pass that ran after everything
	// submitted so far was applied.
	settled := func() pass {
		t.Helper()
		st := eng.Stats().PerShard[0]
		want := st.Accepted + st.Aborts
		deadline := time.After(10 * time.Second)
		for {
			select {
			case p := <-seen:
				if p.progress >= want {
					return p
				}
			case <-deadline:
				t.Fatal("shard 0 never finished its housekeeping")
			}
		}
	}
	must := func(res Result) {
		t.Helper()
		if !res.Accepted() {
			t.Fatalf("%v: %v (%v)", res.Step, res.Outcome(), res.Err)
		}
	}

	// Entity 0 lives on shard 0, entity 1 on shard 1. The straggler reads 0;
	// every cross transaction then writes it, so the straggler precedes all
	// of their shard-0 sub-nodes.
	must(eng.Submit(model.BeginDeclared(1, 0)))
	must(eng.Submit(model.Read(1, 0)))
	for i := 0; i < K; i++ {
		id := model.TxnID(100 + i)
		must(eng.Submit(model.BeginDeclared(id, 0, 1)))
		must(eng.Submit(model.WriteFinal(id, 0, 1)))
	}
	// The last commit's pass may still be running: wait for the one that has
	// filed all K debts.
	p := settled()
	for deadline := time.After(10 * time.Second); p.watching < K; {
		select {
		case p = <-seen:
		case <-deadline:
			t.Fatalf("shard 0 watches %d debts, want %d", p.watching, K)
		}
	}
	if p.searches != K {
		t.Fatalf("%d ancestor searches while %d debts arrived, want one each", p.searches, K)
	}

	// Every sub-node on shard 1 is clean, and shard 1 reports each in the
	// pass that ends the run that committed it, under the registry mutex.
	// Take the mutex once every report is in (a Stats visit lets a pass
	// still running finish): shard 1 then owes nothing, so Stats below,
	// which visits every shard, cannot wait on a shard 1 stuck behind it.
	shard1Owes := func() bool {
		for _, e := range eng.registry.txns {
			if !e.clean[1] { // every entry's parts are [0 1]
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(10 * time.Second); ; eng.Stats() {
		eng.registry.mu.Lock()
		if !shard1Owes() {
			break
		}
		eng.registry.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("shard 1 never reported its sub-nodes clean")
		}
	}

	// A batch that terminates nothing, with the registry mutex held against
	// the shard: its housekeeping must get through regardless.
	for _, r := range eng.SubmitBatch([]model.Step{model.BeginDeclared(900, 2), model.Read(900, 2)}) {
		must(r)
	}
	idle := settled()
	eng.registry.mu.Unlock()
	if idle.searches != K || idle.watching != K {
		t.Fatalf("idle batch: %d searches, %d debts watched; want %d and %d untouched", idle.searches, idle.watching, K, K)
	}

	// End the straggler.
	if abort {
		if !eng.Abort(1) {
			t.Fatal("Abort(straggler) = false")
		}
	} else {
		must(eng.Submit(model.WriteFinal(1, 4)))
	}
	end := settled()
	if end.searches != 2*K || end.watching != 0 {
		t.Fatalf("after the straggler ended: %d searches, %d debts left; want %d and 0", end.searches, end.watching, 2*K)
	}
	eng.registry.mu.Lock()
	live := len(eng.registry.txns)
	eng.registry.mu.Unlock()
	if live != 0 {
		t.Fatalf("registry still tracks %d transactions after every debt was reported", live)
	}
}

// TestSubmitBatchStepBehindOwnAbort is the regression for a pipelined step
// reaching the scheduler after its own transaction ended inside the same
// batch window: it must be answered like the per-step path would —
// rejected with ErrTxnAborted — not as a protocol violation.
func TestSubmitBatchStepBehindOwnAbort(t *testing.T) {
	eng := New(Config{Shards: 1})
	defer eng.Close()
	results := eng.SubmitBatch([]model.Step{
		model.BeginDeclared(1, 0),
		model.BeginDeclared(2, 0),
		model.Read(1, 0),
		model.WriteFinal(2, 0, 4), // T1 → T2
		model.Read(1, 4),          // T2 → T1 would close the cycle: T1 aborts
		model.WriteFinal(1, 8),    // pipelined behind its own abort
		model.Read(2, 0),          // pipelined behind its own final write
	})
	if r := results[4]; r.Outcome() != OutcomeRejected || !errors.Is(r.Err, ErrCycle) || r.Aborted != 1 {
		t.Fatalf("cycle-closing read: %v aborted=%v err=%v, want rejected/T1/ErrCycle", r.Outcome(), r.Aborted, r.Err)
	}
	for _, i := range []int{5, 6} {
		r := results[i]
		if r.Outcome() != OutcomeRejected || !errors.Is(r.Err, ErrTxnAborted) || errors.Is(r.Err, ErrProtocol) || r.Aborted != r.Step.Txn {
			t.Fatalf("step %d (%v): %v aborted=%v err=%v, want rejected with ErrTxnAborted", i, r.Step, r.Outcome(), r.Aborted, r.Err)
		}
	}
	s := eng.Stats()
	if s.Aborted != 1 || s.Completed != 1 || s.Rejected != 3 {
		t.Fatalf("stats: %d aborted, %d completed, %d rejected; want 1, 1, 3", s.Aborted, s.Completed, s.Rejected)
	}
	// A genuinely confused client still hears ErrProtocol: a second BEGIN
	// for an ID the scheduler retains, and the step pipelined behind it.
	results = eng.SubmitBatch([]model.Step{model.BeginDeclared(2, 0), model.Read(2, 0)})
	for i, r := range results {
		if r.Outcome() != OutcomeError || !errors.Is(r.Err, ErrProtocol) {
			t.Fatalf("duplicate-BEGIN batch step %d: %v err=%v, want ErrProtocol", i, r.Outcome(), r.Err)
		}
	}
}

// TestRegistryForgetsRetiredIDs: the registry holds live cross transactions
// only. A finished one is forgotten once it retires, and nothing of its ID
// is kept for the labels it left behind — those name its incarnation and
// die with it — so a server that commits cross transactions all day must not
// grow a set of every ID it ever saw. (Reusing an ID whose stale labels
// still sit in a shard graph is TestCrossIDReuseStaleLabels' subject.)
func TestRegistryForgetsRetiredIDs(t *testing.T) {
	debts := meterDebts(2, nil)
	defer func() { testHookCrossClean = nil }()
	eng := New(Config{Shards: 2, Policy: func() core.Policy { return core.GreedyC1{} }})
	defer eng.Close()
	const n = 500
	peak := 0
	for i := 0; i < n; i++ {
		id := model.TxnID(1 + i)
		for _, st := range []model.Step{
			model.BeginDeclared(id, 0, 1), model.Read(id, 0), model.WriteFinal(id, 0, 1),
		} {
			if res := eng.Submit(st); !res.Accepted() {
				t.Fatalf("%v: %v (%v)", st, res.Outcome(), res.Err)
			}
		}
		eng.registry.mu.Lock()
		peak = max(peak, len(eng.registry.txns))
		eng.registry.mu.Unlock()
	}
	if peak > 16 {
		t.Fatalf("registry held up to %d entries while %d cross transactions ran one at a time", peak, n)
	}
	if left := registryResidue(eng, debts); left != 0 {
		t.Fatalf("%d registry entries and debts left after the engine went quiet", left)
	}
}

// registryResidue waits for a quiet engine's registry to empty and returns
// what is left of it when it gives up: live entries and the clean reports
// the shards still owe. Every run ends in housekeeping, so each Stats
// visit moves the tail one step along — the last reports, then the
// retirement they allow.
func registryResidue(eng *Engine, debts debtMeter) (left int) {
	for deadline := time.Now().Add(10 * time.Second); ; {
		eng.Stats()
		reg := eng.registry
		reg.mu.Lock()
		left = len(reg.txns) + debts.total()
		reg.mu.Unlock()
		if left == 0 || time.Now().After(deadline) {
			return left
		}
	}
}

// debtMeter holds, per shard, how many clean reports the shard owed the
// registry at the end of its last housekeeping pass. The count is taken by
// the shard's lock holder, the only goroutine that may read shard.watch.
type debtMeter []atomic.Int64

// meterDebts installs a debtMeter for an engine with the given number of
// shards as testHookCrossClean, chaining to next when it is not nil. Call
// it before the engine starts, and reset the hook after the engine closes.
func meterDebts(shards int, next func(sh *shard, reported []model.TxnID)) debtMeter {
	m := make(debtMeter, shards)
	testHookCrossClean = func(sh *shard, reported []model.TxnID) {
		m[sh.idx].Store(int64(len(sh.watch)))
		if next != nil {
			next(sh, reported)
		}
	}
	return m
}

// total sums the shards' debts.
func (m debtMeter) total() (n int) {
	for i := range m {
		n += int(m[i].Load())
	}
	return n
}

// TestUnpinnedShardRetainsNothing: a shard whose last sweep kept nothing
// sweeps at the next termination, so with no active transaction left to pin
// anything, every completion is deleted before its run lets go of the lock.
func TestUnpinnedShardRetainsNothing(t *testing.T) {
	eng := New(Config{Shards: 1, Policy: greedyPolicy})
	defer eng.Close()
	for i := 0; i < 32; i++ {
		id, x, y := model.TxnID(i+1), model.Entity(i%3), model.Entity(i%5)
		mustAccept(t, eng.Submit(model.BeginDeclared(id, x, y)))
		mustAccept(t, eng.Submit(model.Read(id, x)))
		mustAccept(t, eng.Submit(model.WriteFinal(id, y)))
		if got := retainedTotal(eng); got != 0 {
			t.Fatalf("after T%d completed, %d completed transactions retained, want 0", id, got)
		}
	}
	if s := eng.Stats(); s.Sweeps != 32 {
		t.Fatalf("Stats.Sweeps = %d, want one per completion (32)", s.Sweeps)
	}
}

// TestKeptSweepWaitsForAsManyTerminations: a sweep that kept K completed
// transactions is followed by the next only after K more terminations. A
// sleeper pins K victims; unrelated transactions then complete and are
// deleted K at a time, and the sweep count moves exactly at every K-th.
func TestKeptSweepWaitsForAsManyTerminations(t *testing.T) {
	const k = 5
	eng := New(Config{Shards: 1, Policy: greedyPolicy})
	defer eng.Close()
	mustAccept(t, eng.Submit(model.BeginDeclared(1, 0)))
	for v := 1; v <= k; v++ {
		trap, vid := model.Entity(v), model.TxnID(100+v)
		mustAccept(t, eng.Submit(model.Read(1, trap)))
		mustAccept(t, eng.Submit(model.BeginDeclared(vid, trap)))
		mustAccept(t, eng.Submit(model.WriteFinal(vid, trap)))
	}
	// A forced sweep starts the count with exactly the K hostages kept.
	eng.sweepAll()
	if got := retainedTotal(eng); got != k {
		t.Fatalf("retained = %d, want %d (victims pinned)", got, k)
	}
	sweeps := eng.Stats().Sweeps
	id := model.TxnID(1000)
	for round := 0; round < 3; round++ {
		for n := 1; n <= k; n++ {
			x := model.Entity(id)
			mustAccept(t, eng.Submit(model.BeginDeclared(id, x)))
			mustAccept(t, eng.Submit(model.WriteFinal(id, x)))
			id++
			want := sweeps
			if n == k {
				want++
			}
			if got := eng.Stats().Sweeps; got != want {
				t.Fatalf("round %d, termination %d of %d: Stats.Sweeps = %d, want %d", round, n, k, got, want)
			}
		}
		sweeps++
		if got := retainedTotal(eng); got != k {
			t.Fatalf("round %d: retained after the sweep = %d, want the %d hostages", round, got, k)
		}
	}
}
