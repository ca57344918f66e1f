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
// registry upkeep as it was before the scheduler filed committed sub-nodes
// on their witnesses — scan the whole registry for this shard's debts,
// materialize every debtor's ancestor closure — kept here so the indexed
// path always has a full scan to be held against.

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

// TestCrossCleanDifferential holds the scheduler's clean reports against
// the full scan at the end of every run of every shard, under a seeded
// cross-heavy workload with stragglers, cycle rejections, 2PC vetoes,
// client aborts of cross transactions in flight and governor reaps: every
// ID a run reports must be clean by the full scan, and every committed
// sub-node the registry still waits for must have an active ancestor by
// it (no report missed).
func TestCrossCleanDifferential(t *testing.T) {
	var passes, reports, carried atomic.Int64
	var failed atomic.Bool
	fail := func(format string, args ...any) {
		if failed.CompareAndSwap(false, true) {
			t.Errorf(format, args...)
		}
	}
	testHookCrossClean = func(sh *shard, reported []model.TxnID) {
		passes.Add(1)
		reports.Add(int64(len(reported)))
		for _, id := range reported {
			if !refClean(sh, id) {
				fail("shard %d reported T%d clean; the full scan finds an active ancestor", sh.idx, id)
			}
		}
		reg := sh.eng.registry
		reg.mu.Lock()
		defer reg.mu.Unlock()
		for _, id := range refPendingClean(reg, sh) {
			if refClean(sh, id) {
				fail("shard %d never reported T%d clean; the full scan finds it clean", sh.idx, id)
			}
			carried.Add(1)
		}
	}
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
			driveBatches(eng, gen, 16, d == 2)
		}(d)
	}
	wg.Wait()
	st := eng.Stats()
	// Quiet now: every debt gets reported and every entry retired within a
	// few rounds of housekeeping.
	left := registryResidue(eng)
	eng.Close()

	if failed.Load() {
		t.FailNow()
	}
	if left != 0 {
		t.Fatalf("%d registry entries left after the engine went quiet", left)
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

// driveBatches feeds gen to the engine size steps per SubmitBatchInto, the
// way the benchmark's embedded door does, and tells gen of every rejected
// step's transaction. With abortSome it also plays the impatient client:
// now and then it aborts a cross transaction it has in flight, which is a
// 2PC ABORT on every participant.
func driveBatches(eng *Engine, gen *workload.Gen, size int, abortSome bool) {
	steps := make([]model.Step, 0, size)
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
// straggler lives each debt is searched exactly once, when it commits; a
// batch that terminates nothing then runs no ancestor search and never takes
// the registry mutex (the test holds it throughout); and ending the
// straggler — by completion, which retires the witness, or by abort, which
// severs paths — searches each debt again exactly once and clears them all.
// The count is the scheduler's Stats.Searched.
func TestCrossCleanProportional(t *testing.T) {
	for _, ending := range []string{"complete", "abort"} {
		t.Run(ending, func(t *testing.T) { crossCleanProportional(t, ending == "abort") })
	}
}

func crossCleanProportional(t *testing.T, abort bool) {
	const K = 64
	// pass is shard 0's state at the end of one run.
	type pass struct {
		progress int64 // steps accepted plus transactions completed or aborted so far
		searches int64
	}
	seen := make(chan pass, 4096) // more than the passes the test can cause
	testHookCrossClean = func(sh *shard, _ []model.TxnID) {
		if sh.idx == 0 {
			st := sh.sched.Stats()
			seen <- pass{st.Accepted + st.Completed + st.Aborts, st.Searched}
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
		want := st.Accepted + st.Completed + st.Aborts
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
			t.Fatalf("%v (%v)", res.Outcome(), res.Err)
		}
	}

	// Entity 0 lives on shard 0, entity 1 on shard 1. The straggler reads 0;
	// every cross transaction then writes it, so the straggler precedes all
	// of their shard-0 sub-nodes.
	must(submit(eng, model.BeginDeclared(1, 0)))
	must(submit(eng, model.Read(1, 0)))
	for i := 0; i < K; i++ {
		id := model.TxnID(100 + i)
		must(submit(eng, model.BeginDeclared(id, 0, 1)))
		must(submit(eng, model.WriteFinal(id, 0, 1)))
	}
	// owed counts the registry entries still waiting for shard 0's report.
	// Caller holds the registry mutex.
	owed := func() (n int) {
		for _, e := range eng.registry.txns {
			if !e.clean[0] { // every entry's parts are [0 1]
				n++
			}
		}
		return n
	}
	p := settled()
	eng.registry.mu.Lock()
	debts := owed()
	eng.registry.mu.Unlock()
	if debts != K {
		t.Fatalf("shard 0 owes %d reports, want %d", debts, K)
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
	for _, r := range eng.SubmitBatchInto(nil, []model.Step{model.BeginDeclared(900, 2), model.Read(900, 2)}) {
		must(r)
	}
	idle := settled()
	debts = owed()
	eng.registry.mu.Unlock()
	if idle.searches != K || debts != K {
		t.Fatalf("idle batch: %d searches, %d debts owed; want %d and %d untouched", idle.searches, debts, K, K)
	}

	// End the straggler.
	if abort {
		if !eng.Abort(1) {
			t.Fatal("Abort(straggler) = false")
		}
	} else {
		must(submit(eng, model.WriteFinal(1, 4)))
	}
	end := settled()
	eng.registry.mu.Lock()
	debts, live := owed(), len(eng.registry.txns)
	eng.registry.mu.Unlock()
	if end.searches != 2*K || debts != 0 {
		t.Fatalf("after the straggler ended: %d searches, %d debts left; want %d and 0", end.searches, debts, 2*K)
	}
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
	steps := []model.Step{
		model.BeginDeclared(1, 0),
		model.BeginDeclared(2, 0),
		model.Read(1, 0),
		model.WriteFinal(2, 0, 4), // T1 → T2
		model.Read(1, 4),          // T2 → T1 would close the cycle: T1 aborts
		model.WriteFinal(1, 8),    // pipelined behind its own abort
		model.Read(2, 0),          // pipelined behind its own final write
	}
	results := eng.SubmitBatchInto(nil, steps)
	if r := results[4]; r.Outcome() != OutcomeRejected || !errors.Is(r.Err, ErrCycle) || r.Aborted != 1 {
		t.Fatalf("cycle-closing read: %v aborted=%v err=%v, want rejected/T1/ErrCycle", r.Outcome(), r.Aborted, r.Err)
	}
	for _, i := range []int{5, 6} {
		r := results[i]
		if r.Outcome() != OutcomeRejected || !errors.Is(r.Err, ErrTxnAborted) || errors.Is(r.Err, ErrProtocol) || r.Aborted != steps[i].Txn {
			t.Fatalf("step %d (%v): %v aborted=%v err=%v, want rejected with ErrTxnAborted", i, steps[i], r.Outcome(), r.Aborted, r.Err)
		}
	}
	s := eng.Stats()
	if s.Aborted != 1 || s.Completed != 1 || s.Rejected != 3 {
		t.Fatalf("stats: %d aborted, %d completed, %d rejected; want 1, 1, 3", s.Aborted, s.Completed, s.Rejected)
	}
	// A genuinely confused client still hears ErrProtocol: a second BEGIN
	// for an ID the scheduler retains, and the step pipelined behind it.
	results = eng.SubmitBatchInto(nil, []model.Step{model.BeginDeclared(2, 0), model.Read(2, 0)})
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
// grow a set of every ID it ever saw. The retirement lists it keeps for the
// shards are empty once every shard has been visited. (Reusing an ID whose stale labels
// still sit in a shard graph is TestCrossIDReuseStaleLabels' subject.)
func TestRegistryForgetsRetiredIDs(t *testing.T) {
	eng := New(Config{Shards: 2, Policy: func() core.Policy { return core.GreedyC1{} }})
	defer eng.Close()
	const n = 500
	peak := 0
	for i := 0; i < n; i++ {
		id := model.TxnID(1 + i)
		for _, st := range []model.Step{
			model.BeginDeclared(id, 0, 1), model.Read(id, 0), model.WriteFinal(id, 0, 1),
		} {
			if res := submit(eng, st); !res.Accepted() {
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
	if left := registryResidue(eng); left != 0 {
		t.Fatalf("%d registry entries left after the engine went quiet", left)
	}
	// The last retirement may have come after its shards' visits in the
	// last pass; one more visit of every shard takes it.
	eng.Stats()
	reg := eng.registry
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for p, ids := range reg.retired {
		if len(ids) != 0 || reg.due[p].Load() {
			t.Fatalf("shard %d's retirement list holds %v after every shard was visited", p, ids)
		}
	}
}

// retiredOn returns a shard whose retirement list holds id, or -1.
func retiredOn(eng *Engine, id model.TxnID) int {
	reg := eng.registry
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for p, ids := range reg.retired {
		if slices.Contains(ids, id) {
			return p
		}
	}
	return -1
}

// registryResidue waits for a quiet engine's registry to empty and returns
// how many entries are left when it gives up. Every run ends in
// housekeeping, so each Stats visit moves the tail one step along — the
// last reports, then the retirement they allow.
func registryResidue(eng *Engine) (left int) {
	for deadline := time.Now().Add(10 * time.Second); ; {
		eng.Stats()
		reg := eng.registry
		reg.mu.Lock()
		left = len(reg.txns)
		reg.mu.Unlock()
		if left == 0 || time.Now().After(deadline) {
			return left
		}
	}
}

// TestRetirementSweepsInTheVisitThatLandsIt: cross C commits on shards
// {0,1} behind straggler S on shard 1, and local L on shard 0 completes
// carrying C's label, so shard 0 retains C and L. S's end on shard 1 lets
// the registry retire C. Shard 0 terminates nothing after that; its next
// visit, a BEGIN, takes the retirement and deletes both.
func TestRetirementSweepsInTheVisitThatLandsIt(t *testing.T) {
	eng := New(Config{Shards: 2, Policy: func() core.Policy { return core.GreedyC1{} }})
	defer eng.Close()
	for _, st := range []model.Step{
		model.BeginDeclared(9, 1), model.Read(9, 1), // S, shard 1
		model.BeginDeclared(1, 0, 1), model.WriteFinal(1, 0, 1), // C
		model.BeginDeclared(7, 0), model.Read(7, 0), model.WriteFinal(7, 2), // L, shard 0
	} {
		if res := submit(eng, st); !res.Accepted() {
			t.Fatalf("%v: %v (%v)", st, res.Outcome(), res.Err)
		}
	}
	before := eng.Stats().PerShard[0]
	if res := submit(eng, model.WriteFinal(9, 3)); !res.Accepted() {
		t.Fatalf("S's final write: %v (%v)", res.Outcome(), res.Err)
	}
	if retiredOn(eng, 1) < 0 {
		t.Fatal("S ended, yet the registry did not retire C")
	}
	if n := eng.Gauges().Retained[0]; n != 2 {
		t.Fatalf("shard 0 retains %d before its next visit, want C and L", n)
	}
	if res := submit(eng, model.BeginDeclared(20, 4)); !res.Accepted() {
		t.Fatalf("BEGIN on shard 0: %v (%v)", res.Outcome(), res.Err)
	}
	if n := eng.Gauges().Retained[0]; n != 0 {
		t.Fatalf("shard 0 retains %d after the visit that took C's retirement, want 0", n)
	}
	after := eng.Stats().PerShard[0]
	if after.Completed != before.Completed || after.Aborts != before.Aborts || after.Deleted != before.Deleted+2 {
		t.Fatalf("shard 0: %d→%d completed, %d→%d aborts, %d→%d deleted; want no termination and 2 deletions",
			before.Completed, after.Completed, before.Aborts, after.Aborts, before.Deleted, after.Deleted)
	}
}

// TestUnpinnedShardRetainsNothing: a shard whose last sweep kept nothing
// sweeps at the next termination, so with no active transaction left to pin
// anything, every completion is deleted before its run lets go of the lock.
func TestUnpinnedShardRetainsNothing(t *testing.T) {
	eng := New(Config{Shards: 1, Policy: greedyPolicy})
	defer eng.Close()
	for i := 0; i < 32; i++ {
		id, x, y := model.TxnID(i+1), model.Entity(i%3), model.Entity(i%5)
		mustAccept(t, submit(eng, model.BeginDeclared(id, x, y)))
		mustAccept(t, submit(eng, model.Read(id, x)))
		mustAccept(t, submit(eng, model.WriteFinal(id, y)))
		if got := retainedTotal(eng); got != 0 {
			t.Fatalf("after T%d completed, %d completed transactions retained, want 0", id, got)
		}
	}
	if s := eng.Stats(); s.Sweeps != 32 {
		t.Fatalf("Stats.Sweeps = %d, want one per completion (32)", s.Sweeps)
	}
}

// TestRescanAfterEveryTerminationDeletesNothing: a shard sweeps at every
// step that terminates a transaction, and that sweep, though it examines
// only the new completion and what the termination released, leaves
// nothing a rescan of every retained transaction would delete. Hot-spot
// streams of local transactions are fed one step at a time, to one shard
// with a straggler and to two shards without one (a straggler reading
// every shard would be a cross transaction, and the cross gates are the
// Theorem 2 lockstep's to check); after every step, every completed
// transaction a shard retains must fail C1, and every terminating step
// must have swept.
func TestRescanAfterEveryTerminationDeletesNothing(t *testing.T) {
	for shards := 1; shards <= 2; shards++ {
		for seed := int64(1); seed <= 4; seed++ {
			straggler := 16
			if shards > 1 {
				straggler = 0
			}
			eng := New(Config{Shards: shards, Policy: greedyPolicy})
			gen := workload.New(workload.Config{
				Entities: 32, Txns: 300, MaxActive: 8, HotFrac: 0.2, Straggler: straggler,
				Shards: shards, DeclareFootprint: true, RestartAborted: true, Seed: seed,
			})
			var retained, sweeps int64
			for st, ok := gen.Next(); ok; st, ok = gen.Next() {
				res := submit(eng, st)
				if !res.Accepted() {
					gen.NotifyAbort(st.Txn)
				}
				if res.Aborted != model.NoTxn || res.CompletedTxn != model.NoTxn {
					if s := eng.Stats().Sweeps; s == sweeps {
						t.Fatalf("shards %d, seed %d, %v: terminated T%d without a sweep", shards, seed, st, st.Txn)
					}
				}
				sweeps = eng.Stats().Sweeps
				for _, sh := range eng.shards {
					for _, id := range sh.sched.CompletedTxns() {
						if ok, _ := sh.sched.CheckC1(id); ok {
							t.Fatalf("shards %d, seed %d, after %v: shard %d retains T%d, which C1 lets go", shards, seed, st, sh.idx, id)
						}
						retained++
					}
				}
			}
			eng.Close()
			if retained == 0 {
				t.Fatalf("shards %d, seed %d: nothing was ever retained; the straggler pinned nothing", shards, seed)
			}
		}
	}
}
