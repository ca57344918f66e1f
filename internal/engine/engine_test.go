package engine

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/trace"
)

// submit sends one step through the per-step door with no deadline, as a
// session outside any context would.
func submit(eng *Engine, step model.Step) Result {
	return eng.SubmitCtx(context.Background(), step)
}

// applyOnShard applies one step straight on shard p, past both doors: no
// admission, no route, no governor pass.
func applyOnShard(eng *Engine, p int, step model.Step) Result {
	out := []Result{{}}
	if !eng.shards[p].run(&request{steps: []model.Step{step}, out: out}) {
		return closedResult(step)
	}
	return out[0]
}

// TestSingleShardSemantics pins the engine to the paper's scheduler
// semantics on one shard: the classic two-transaction cycle is rejected.
func TestSingleShardSemantics(t *testing.T) {
	eng := New(Config{Shards: 1})
	defer eng.Close()

	mustOutcome := func(res Result, want Outcome) {
		t.Helper()
		if res.Outcome() != want {
			t.Fatalf("outcome = %v (err=%v), want %v", res.Outcome(), res.Err, want)
		}
	}
	// T1 reads x, T2 reads y, T2 writes x (T1→T2), then T1 writes y: cycle.
	mustOutcome(submit(eng, model.Begin(0)), OutcomeAccepted)
	mustOutcome(submit(eng, model.Begin(1)), OutcomeAccepted)
	mustOutcome(submit(eng, model.Read(0, 10)), OutcomeAccepted)
	mustOutcome(submit(eng, model.Read(1, 11)), OutcomeAccepted)
	res := submit(eng, model.WriteFinal(1, 10))
	mustOutcome(res, OutcomeAccepted)
	if res.CompletedTxn != 1 {
		t.Fatalf("CompletedTxn = %v, want 1", res.CompletedTxn)
	}
	res = submit(eng, model.WriteFinal(0, 11))
	mustOutcome(res, OutcomeRejected)
	if res.Aborted != 0 {
		t.Fatalf("Aborted = %v, want 0", res.Aborted)
	}
	s := eng.Stats()
	if s.Completed != 1 || s.Aborted != 1 {
		t.Fatalf("stats = %+v, want 1 completed / 1 aborted", s)
	}
}

// TestRoutingAndMisroute verifies the partition discipline: a declared
// single-partition transaction is pinned to its shard and aborted the
// moment it strays.
func TestRoutingAndMisroute(t *testing.T) {
	eng := New(Config{Shards: 4})
	defer eng.Close()

	// Footprint {0,4,8} is all partition 0.
	if res := submit(eng, model.BeginDeclared(1, 0, 4, 8)); res.Outcome() != OutcomeAccepted {
		t.Fatalf("begin: %v (%v)", res.Outcome(), res.Err)
	}
	if res := submit(eng, model.Read(1, 8)); res.Outcome() != OutcomeAccepted {
		t.Fatalf("in-partition read: %v (%v)", res.Outcome(), res.Err)
	}
	// Entity 3 belongs to partition 3: misroute, transaction aborted.
	res := submit(eng, model.Read(1, 3))
	if res.Outcome() != OutcomeRejected || !errors.Is(res.Err, ErrMisroute) {
		t.Fatalf("foreign read: %v (%v), want rejected/ErrMisroute", res.Outcome(), res.Err)
	}
	// The transaction is gone now.
	res = submit(eng, model.Read(1, 8))
	if res.Outcome() != OutcomeRejected || !errors.Is(res.Err, ErrTxnAborted) {
		t.Fatalf("post-abort read: %v (%v), want rejected/ErrTxnAborted", res.Outcome(), res.Err)
	}
	if s := eng.Stats(); s.Misroutes != 1 {
		t.Fatalf("Misroutes = %d, want 1", s.Misroutes)
	}
}

// TestCrossPartition2PC drives one cross-partition transaction through the
// two-phase commit and checks that bystanders survive: a concurrent active
// on a participating shard is untouched by the cross commit and completes
// afterwards. This is the regression test for the stop-the-world
// coordinator the 2PC replaced (it used to kill T7 at the barrier).
func TestCrossPartition2PC(t *testing.T) {
	log := trace.NewSafeLog()
	eng := New(Config{Shards: 4, Log: log})
	defer eng.Close()

	// A local active on shard 0 — a *participant* of the cross commit.
	if res := submit(eng, model.BeginDeclared(7, 4)); !res.Accepted() {
		t.Fatalf("bystander begin: %v (%v)", res.Outcome(), res.Err)
	}
	if res := submit(eng, model.Read(7, 4)); !res.Accepted() {
		t.Fatalf("bystander read: %v (%v)", res.Outcome(), res.Err)
	}

	// Cross transaction spanning partitions 0 and 2: sub-transactions begin
	// on both shards, the read applies immediately on shard 0, and the
	// final write runs PREPARE on both participants before COMMIT.
	if res := submit(eng, model.BeginDeclared(9, 0, 2)); !res.Accepted() {
		t.Fatalf("cross begin: %v (%v)", res.Outcome(), res.Err)
	}
	if res := submit(eng, model.Read(9, 0)); !res.Accepted() {
		t.Fatalf("cross read: %v (%v)", res.Outcome(), res.Err)
	}
	res := submit(eng, model.WriteFinal(9, 2))
	if res.Outcome() != OutcomeAccepted || res.CompletedTxn != 9 {
		t.Fatalf("cross final: %v (%v), CompletedTxn=%v", res.Outcome(), res.Err, res.CompletedTxn)
	}

	s := eng.Stats()
	if s.CrossTxns != 1 || s.Prepares != 2 {
		t.Fatalf("stats = %+v, want 1 cross txn / 2 prepares", s)
	}
	for i, p := range s.PreparedByShard {
		if p != 0 {
			t.Fatalf("shard %d still has %d prepared sub-transactions after the decision", i, p)
		}
	}
	// The bystander survived the cross commit and completes normally.
	if res := submit(eng, model.WriteFinal(7, 4)); !res.Accepted() || res.CompletedTxn != 7 {
		t.Fatalf("bystander final after cross commit: %v (%v)", res.Outcome(), res.Err)
	}
	// The referee agrees with everything that was accepted, and both
	// transactions' steps are in the accepted subschedule.
	if err := log.CheckAcceptedCSR(); err != nil {
		t.Fatal(err)
	}
	survivors := map[model.TxnID]bool{}
	for _, st := range log.AcceptedSubschedule() {
		survivors[st.Txn] = true
	}
	if !survivors[7] || !survivors[9] {
		t.Fatalf("accepted subschedule lost a committed transaction: %v", survivors)
	}
}

// TestCrossCycleDetectedAtPrepare builds the cycle the stop-the-world
// coordinator existed to prevent — two cross transactions whose shard-local
// paths compose into a global cycle — and checks the cross-arc registry
// catches it at PREPARE time, aborting only the cross transaction itself.
func TestCrossCycleDetectedAtPrepare(t *testing.T) {
	log := trace.NewSafeLog()
	eng := New(Config{Shards: 2, Log: log})
	defer eng.Close()

	// Entities 0 (shard 0) and 1 (shard 1). Both transactions participate
	// on both shards.
	mustAccept := func(res Result) {
		t.Helper()
		if !res.Accepted() {
			t.Fatalf("%v (%v)", res.Outcome(), res.Err)
		}
	}
	mustAccept(submit(eng, model.BeginDeclared(1, 0, 1)))
	mustAccept(submit(eng, model.BeginDeclared(2, 0, 1)))
	mustAccept(submit(eng, model.Read(1, 0))) // T1 reads x on shard 0
	mustAccept(submit(eng, model.Read(2, 1))) // T2 reads y on shard 1
	// T2 writes x: shard 0 gets arc T1→T2 (reader before writer), which the
	// registry records as an inter-shard reach-arc T1→T2.
	res := submit(eng, model.WriteFinal(2, 0))
	if !res.Accepted() || res.CompletedTxn != 2 {
		t.Fatalf("T2 final: %v (%v)", res.Outcome(), res.Err)
	}
	// T1 writes y: shard 1 would add arc T2→T1, composing with T1→T2 into
	// a global cycle no single shard can see. The registry vetoes the
	// prepare; T1 aborts, nothing else does.
	res = submit(eng, model.WriteFinal(1, 1))
	if res.Outcome() != OutcomeRejected || res.Aborted != 1 {
		t.Fatalf("T1 final: %v (%v), want rejected cross abort", res.Outcome(), res.Err)
	}
	if !errors.Is(res.Err, ErrCrossCycle) {
		t.Fatalf("T1 final err = %v, want ErrCrossCycle", res.Err)
	}
	s := eng.Stats()
	if s.CrossAborts != 1 {
		t.Fatalf("stats = %+v, want 1 cross abort", s)
	}
	for i, p := range s.PreparedByShard {
		if p != 0 {
			t.Fatalf("shard %d leaked %d prepared pins after the cross abort", i, p)
		}
	}
	// The referee must agree: with T1 excluded the subschedule is CSR (and
	// it would not have been with both).
	if err := log.CheckAcceptedCSR(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossAbortReleasesPins is the regression test for aborting a cross
// transaction part-way: a client abort after sub-transactions and reads
// exist on several shards, and a prepare that fails on the second
// participant, must both release every participant's state (pins included)
// deterministically — proven by reusing the IDs, which only works if every
// shard forgot them.
func TestCrossAbortReleasesPins(t *testing.T) {
	eng := New(Config{Shards: 3})
	defer eng.Close()

	// Client abort mid-flight: sub-transactions live on shards 0,1,2.
	if res := submit(eng, model.BeginDeclared(1, 0, 1, 2)); !res.Accepted() {
		t.Fatalf("begin: %v (%v)", res.Outcome(), res.Err)
	}
	if res := submit(eng, model.Read(1, 1)); !res.Accepted() {
		t.Fatalf("read: %v (%v)", res.Outcome(), res.Err)
	}
	if !eng.Abort(1) {
		t.Fatal("abort of live cross txn returned false")
	}
	if eng.Abort(1) {
		t.Fatal("second abort returned true")
	}
	if res := submit(eng, model.Read(1, 0)); res.Outcome() != OutcomeRejected || !errors.Is(res.Err, ErrTxnAborted) {
		t.Fatalf("read after abort: %v (%v)", res.Outcome(), res.Err)
	}
	// Every shard released its sub-transaction: the ID is reusable.
	if res := submit(eng, model.BeginDeclared(1, 0, 1, 2)); !res.Accepted() {
		t.Fatalf("begin after abort (ID reuse): %v (%v)", res.Outcome(), res.Err)
	}
	if res := submit(eng, model.WriteFinal(1, 0, 1, 2)); !res.Accepted() || res.CompletedTxn != 1 {
		t.Fatalf("reused txn final: %v (%v)", res.Outcome(), res.Err)
	}

	// Prepare failure on the second participant: T10 reads entity 3 on
	// shard 0 and entity 4 on shard 1; a conflicting committed local write
	// on shard 1 makes T10's final write close a local cycle there, so the
	// first participant (shard 0) votes yes and pins, then shard 1 votes
	// no — the abort must unpin shard 0.
	if res := submit(eng, model.BeginDeclared(10, 3, 4)); !res.Accepted() {
		t.Fatalf("T10 begin: %v (%v)", res.Outcome(), res.Err)
	}
	if res := submit(eng, model.Read(10, 3)); !res.Accepted() {
		t.Fatalf("T10 read 3: %v (%v)", res.Outcome(), res.Err)
	}
	if res := submit(eng, model.Read(10, 4)); !res.Accepted() {
		t.Fatalf("T10 read 4: %v (%v)", res.Outcome(), res.Err)
	}
	// Local T11 on shard 1: writes 4 after T10's read (arc T10→T11)…
	if res := submit(eng, model.BeginDeclared(11, 4)); !res.Accepted() {
		t.Fatalf("T11 begin: %v (%v)", res.Outcome(), res.Err)
	}
	if res := submit(eng, model.WriteFinal(11, 4)); !res.Accepted() {
		t.Fatalf("T11 final: %v (%v)", res.Outcome(), res.Err)
	}
	// …then T10's final write of {3,4}: shard 0 prepares fine (and pins),
	// but on shard 1 the write needs arc T11→T10 while T10→T11 already
	// exists — a local cycle, so shard 1 votes no.
	res := submit(eng, model.WriteFinal(10, 3, 4))
	if res.Outcome() != OutcomeRejected || res.Aborted != 10 {
		t.Fatalf("T10 final: %v (%v), want local-cycle rejection", res.Outcome(), res.Err)
	}
	s := eng.Stats()
	for i, p := range s.PreparedByShard {
		if p != 0 {
			t.Fatalf("shard %d leaked %d prepared pins after vote-no abort", i, p)
		}
	}
	// Both IDs reusable: every participant cleaned up.
	if res := submit(eng, model.BeginDeclared(10, 3, 4)); !res.Accepted() {
		t.Fatalf("T10 reuse after vote-no: %v (%v)", res.Outcome(), res.Err)
	}
}

// TestDuplicateBeginAndBadKinds covers protocol errors.
func TestDuplicateBeginAndBadKinds(t *testing.T) {
	eng := New(Config{Shards: 2})
	defer eng.Close()
	if res := submit(eng, model.BeginDeclared(1, 0)); !res.Accepted() {
		t.Fatalf("begin: %v", res.Outcome())
	}
	if res := submit(eng, model.BeginDeclared(1, 0)); res.Outcome() != OutcomeError {
		t.Fatalf("duplicate begin: %v, want error", res.Outcome())
	}
	if res := submit(eng, model.Write(1, 0)); res.Outcome() != OutcomeError {
		t.Fatalf("multiwrite step: %v, want error", res.Outcome())
	}
	if res := submit(eng, model.Read(99, 0)); res.Outcome() != OutcomeRejected {
		t.Fatalf("read without begin: %v, want rejected", res.Outcome())
	}
}

// TestClientAbort exercises Engine.Abort for both route kinds.
func TestClientAbort(t *testing.T) {
	eng := New(Config{Shards: 2})
	defer eng.Close()
	submit(eng, model.BeginDeclared(1, 0))
	if !eng.Abort(1) {
		t.Fatal("abort of live local txn returned false")
	}
	if eng.Abort(1) {
		t.Fatal("second abort returned true")
	}
	submit(eng, model.BeginDeclared(2, 0, 1)) // cross: sub-txns on shards 0,1
	if !eng.Abort(2) {
		t.Fatal("abort of live cross txn returned false")
	}
	if res := submit(eng, model.Read(2, 0)); res.Outcome() != OutcomeRejected {
		t.Fatalf("read after cross abort: %v", res.Outcome())
	}
}

// TestAbortLosesToFinalWrite: a local transaction's final write lands
// between Engine.Abort's route lookup and its shard visit, so the abort
// finds nothing to abort. Abort must say so — report false, count no
// abort, and leave the committed transaction in the trace's accepted
// subschedule — and the governor, which reaps through Abort, must count no
// reap.
func TestAbortLosesToFinalWrite(t *testing.T) {
	log := trace.NewSafeLog()
	eng := New(Config{Shards: 1, Log: log})
	defer eng.Close()
	defer func() { testHookRoundTrip = nil }()
	// finishFirst applies id's final write at the start of the next shard
	// visit, under the lock, before that visit's own request.
	finishFirst := func(id model.TxnID) {
		testHookRoundTrip = func(sh *shard) {
			testHookRoundTrip = nil
			if res := sh.applyOne(model.WriteFinal(id, 0)); res.CompletedTxn != id {
				t.Errorf("T%d's final write: %v", id, res.Err)
			}
		}
	}
	if res := submit(eng, model.BeginDeclared(1, 0)); !res.Accepted() {
		t.Fatal(res.Err)
	}
	finishFirst(1)
	if eng.Abort(1) {
		t.Error("Abort of a transaction that committed first returned true")
	}
	if s := eng.Stats(); s.Completed != 1 || s.Aborted != 0 {
		t.Errorf("Completed %d, Aborted %d; want 1, 0", s.Completed, s.Aborted)
	}
	if got := len(log.AcceptedSubschedule()); got != 2 {
		t.Errorf("accepted subschedule holds %d steps, want T1's 2", got)
	}
	if err := log.CheckAcceptedCSR(); err != nil {
		t.Error(err)
	}

	if res := submit(eng, model.BeginDeclared(2, 0)); !res.Accepted() {
		t.Fatal(res.Err)
	}
	finishFirst(2)
	if eng.reapOne(2, 0, 0, 0) {
		t.Error("reapOne of a transaction that committed first returned true")
	}
	if s := eng.Stats(); s.Reaped != 0 || s.Completed != 2 {
		t.Errorf("Reaped %d, Completed %d; want 0, 2", s.Reaped, s.Completed)
	}
}

// TestGCDeletesUnderLoad runs sequential partition-local traffic with
// GreedyC1 and checks that the shards' sweeps actually reclaim nodes and the
// retained graph stays far below the transaction count.
func TestGCDeletesUnderLoad(t *testing.T) {
	eng := New(Config{
		Shards: 2,
		Policy: func() core.Policy { return core.GreedyC1{} },
	})
	defer eng.Close()
	const txns = 400
	for i := 0; i < txns; i++ {
		id := model.TxnID(i)
		p := i % 2
		x := model.Entity(p + 2*(i%50))
		if res := submit(eng, model.BeginDeclared(id, x)); !res.Accepted() {
			t.Fatalf("begin %d: %v (%v)", i, res.Outcome(), res.Err)
		}
		submit(eng, model.Read(id, x))
		submit(eng, model.WriteFinal(id, x))
	}
	// Quiesce before comparing the engine's atomic Deleted counter with the
	// schedulers' (a post-batch sweep can land between the two reads on a
	// live engine); Close is idempotent with the deferred one.
	eng.Close()
	s := eng.Stats()
	if s.Deleted == 0 || s.Sweeps == 0 {
		t.Fatalf("no GC happened: %+v", s)
	}
	if kept := s.Merged.PeakKept; kept > txns/4 {
		t.Fatalf("peak retained completed = %d, want far below %d", kept, txns)
	}
	if s.Deleted != s.Merged.Deleted {
		t.Fatalf("engine Deleted=%d != scheduler Deleted=%d", s.Deleted, s.Merged.Deleted)
	}
}

// TestConcurrentSubmitRace hammers the engine from many goroutines with a
// mix of local and cross transactions; run under -race. Outcomes are
// whatever they are (kills and rejections included) — the assertions are
// the internal consistency of the counters.
func TestConcurrentSubmitRace(t *testing.T) {
	eng := New(Config{
		Shards: 4,
		Policy: func() core.Policy { return core.GreedyC1{} },
	})
	defer eng.Close()

	const workers = 8
	const txnsPerWorker = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txnsPerWorker; i++ {
				id := model.TxnID(w*txnsPerWorker + i)
				p := (w + i) % 4
				x := model.Entity(p + 4*(i%25))
				var fp []model.Entity
				if i%10 == 9 { // every tenth transaction is cross
					y := model.Entity((p+1)%4 + 4*(i%25))
					fp = []model.Entity{x, y}
				} else {
					fp = []model.Entity{x}
				}
				if res := submit(eng, model.BeginDeclared(id, fp...)); res.Outcome() == OutcomeError {
					t.Errorf("begin %d: %v", id, res.Err)
					return
				}
				for _, e := range fp {
					submit(eng, model.Read(id, e))
				}
				submit(eng, model.WriteFinal(id, fp[0]))
			}
		}(w)
	}
	wg.Wait()

	s := eng.Stats()
	// Engine counters are logical (one BEGIN/final/completion per cross
	// transaction) while scheduler counters see one sub-transaction per
	// participant, so the per-shard sums dominate whenever cross traffic
	// ran.
	if s.Accepted > s.Merged.Accepted {
		t.Fatalf("engine Accepted=%d > scheduler Accepted=%d", s.Accepted, s.Merged.Accepted)
	}
	if s.Completed > s.Merged.Completed {
		t.Fatalf("engine Completed=%d > scheduler Completed=%d", s.Completed, s.Merged.Completed)
	}
	if s.CrossTxns == 0 {
		t.Fatal("no cross transactions ran")
	}
	if s.Completed+s.Aborted == 0 {
		t.Fatal("nothing finished")
	}
}

// TestStatsAfterClose verifies final per-shard stats survive Close.
func TestStatsAfterClose(t *testing.T) {
	eng := New(Config{Shards: 2})
	submit(eng, model.BeginDeclared(1, 0))
	submit(eng, model.WriteFinal(1, 0))
	eng.Close()
	eng.Close() // idempotent
	s := eng.Stats()
	if s.Merged.Completed != 1 {
		t.Fatalf("after close: Merged.Completed = %d, want 1", s.Merged.Completed)
	}
	if res := submit(eng, model.Begin(2)); !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", res.Err)
	}
}

// TestReusedIDDoesNotPoisonRoute: a BEGIN whose ID collides with a
// retained completed transaction must fail cleanly without leaving a stale
// route behind (regression: the route used to stay forever).
func TestReusedIDDoesNotPoisonRoute(t *testing.T) {
	eng := New(Config{Shards: 2}) // nogc: completed txns stay retained
	defer eng.Close()
	submit(eng, model.BeginDeclared(4, 0))
	submit(eng, model.WriteFinal(4, 0))
	if res := submit(eng, model.BeginDeclared(4, 0)); res.Outcome() != OutcomeError {
		t.Fatalf("reused begin: %v, want error", res.Outcome())
	}
	// Without a lingering route, this is rejected at the engine (unknown
	// txn), not routed to the shard as if T4 were live.
	res := submit(eng, model.Read(4, 0))
	if res.Outcome() != OutcomeRejected || !errors.Is(res.Err, ErrTxnAborted) {
		t.Fatalf("read after failed reuse: %v (%v), want rejected/ErrTxnAborted", res.Outcome(), res.Err)
	}
}

// TestCrossReuseKeepsOriginalInTrace: a cross-partition transaction reusing
// the ID of a retained committed transaction must fail without marking the
// *original* transaction aborted in the trace (regression: MarkAborted used
// to erase the committed transaction's steps from the referee's input).
// Under 2PC the collision surfaces at BEGIN (the sub-begin fan-out hits the
// duplicate on shard 0 and rolls back), not at the final write.
func TestCrossReuseKeepsOriginalInTrace(t *testing.T) {
	log := trace.NewSafeLog()
	eng := New(Config{Shards: 2, Log: log}) // nogc keeps T1 retained on shard 0
	defer eng.Close()
	submit(eng, model.BeginDeclared(1, 0))
	submit(eng, model.WriteFinal(1, 0))
	// Reuse ID 1 for a cross transaction; the sub-begin on shard 0 hits a
	// duplicate-BEGIN protocol error and the fan-out rolls back.
	if res := submit(eng, model.BeginDeclared(1, 0, 1)); res.Outcome() != OutcomeError {
		t.Fatalf("cross reuse begin: %v (%v), want error", res.Outcome(), res.Err)
	}
	// No route was left behind: the follow-up final write is unknown.
	if res := submit(eng, model.WriteFinal(1, 1)); res.Outcome() != OutcomeRejected || !errors.Is(res.Err, ErrTxnAborted) {
		t.Fatalf("cross reuse final: %v (%v), want rejected/ErrTxnAborted", res.Outcome(), res.Err)
	}
	var got int
	for _, st := range log.AcceptedSubschedule() {
		if st.Txn == 1 {
			got++
		}
	}
	if got != 2 {
		t.Fatalf("original T1 has %d steps in the accepted subschedule, want 2 (begin+write)", got)
	}
}

// TestCrossBeginRollbackLeavesNoTrace is TestCrossReuseKeepsOriginalInTrace
// with the original on the second participant: shard 0's sub-begin applies
// and is logged before shard 1 refuses the duplicate, so the rollback must
// mark the incarnation that sub-begin opened aborted, or the referee keeps
// its BEGIN as a third step of T1.
func TestCrossBeginRollbackLeavesNoTrace(t *testing.T) {
	log := trace.NewSafeLog()
	eng := New(Config{Shards: 2, Log: log}) // nogc keeps T1 retained on shard 1
	defer eng.Close()
	mustAccept(t, submit(eng, model.BeginDeclared(1, 1)))
	mustAccept(t, submit(eng, model.WriteFinal(1, 1)))
	if res := submit(eng, model.BeginDeclared(1, 0, 1)); res.Outcome() != OutcomeError {
		t.Fatalf("cross reuse begin: %v (%v), want error", res.Outcome(), res.Err)
	}
	var got []model.Step
	for _, st := range log.AcceptedSubschedule() {
		if st.Txn == 1 {
			got = append(got, st)
		}
	}
	if len(got) != 2 {
		t.Fatalf("T1 has %d steps in the accepted subschedule, want 2 (the original's begin+write): %v", len(got), got)
	}
}

// TestCrossBeginFanOutRollback: a three-shard cross BEGIN whose ID collides
// with a retained transaction on one participant, at each position in turn,
// and then on all three (the original was itself a cross transaction). The
// sub-begins go out together, so the others apply before the refusal is
// seen; the rollback must leave no sub-node, route or registry entry behind,
// and must not kill the original in the trace — which it would if it marked
// an abort when no sub-begin applied.
func TestCrossBeginFanOutRollback(t *testing.T) {
	const id = 7
	for _, orig := range [][]model.Entity{{0}, {1}, {2}, {0, 1, 2}} {
		log := trace.NewSafeLog()
		eng := New(Config{Shards: 3, Log: log}) // nogc: the original stays retained
		defer eng.Close()
		mustAccept(t, submit(eng, model.BeginDeclared(id, orig...)))
		mustAccept(t, submit(eng, model.WriteFinal(id, orig...)))
		res := submit(eng, model.BeginDeclared(id, 0, 1, 2))
		if !errors.Is(res.Err, ErrProtocol) {
			t.Fatalf("original on %v: cross begin answered %v, want ErrProtocol", orig, res.Err)
		}
		if _, live := eng.routes.load(id); live {
			t.Fatalf("original on %v: route left behind", orig)
		}
		eng.registry.mu.Lock()
		entries := len(eng.registry.txns)
		eng.registry.mu.Unlock()
		if entries != 0 {
			t.Fatalf("original on %v: registry tracks %d transactions", orig, entries)
		}
		if s := eng.Stats(); s.CrossTxns != int64(len(orig)/3) || s.CrossAborts != 0 {
			t.Fatalf("original on %v: %d cross transactions begun, %d aborted; the second BEGIN never happened", orig, s.CrossTxns, s.CrossAborts)
		}
		// A consecutive run of sub-begins opens one incarnation each, and the
		// abort mark kills the last; earlier ones keep a bare BEGIN, which the
		// conflict graph ignores. What must survive is the original's write,
		// one slice per shard it ran on.
		writes := slices.DeleteFunc(log.AcceptedSubschedule(), func(st model.Step) bool { return st.Txn != id || st.Kind == model.KindBegin })
		if len(writes) != len(orig) {
			t.Fatalf("original on %v: T%d keeps %d accepted non-BEGIN steps, want the original's %d", orig, id, len(writes), len(orig))
		}
		if err := log.CheckAcceptedCSR(); err != nil {
			t.Fatalf("original on %v: %v", orig, err)
		}
		// Close first: every shard shuts down and no later run applies
		// anything, making the schedulers safe to inspect directly.
		eng.Close()
		for i, sh := range eng.shards {
			st := sh.sched.Txn(id)
			if slices.Contains(orig, model.Entity(i)) {
				if st == nil || st.Status != model.StatusCompleted {
					t.Fatalf("original on %v: gone from shard %d", orig, i)
				}
			} else if st != nil {
				t.Fatalf("original on %v: shard %d keeps a sub-node in state %v", orig, i, st.Status)
			}
		}
	}
}

// TestCrossBeginKeepsTrackedEntry: straggler T1 reads e0 and cross T5 over
// shards {0,1} commits writing it, so shard 0 cannot report T5 clean and
// the registry keeps tracking it. A cross BEGIN reusing ID 5 is refused
// before anything begins, and T5's entry survives as it was — its
// reach-arcs and clean marks with it, and no shard is told it retired. On
// two shards the
// newcomer meets T5's retained sub-nodes; on four nothing but the registry
// knows the ID is taken.
func TestCrossBeginKeepsTrackedEntry(t *testing.T) {
	for _, shards := range []int{2, 4} {
		eng := New(Config{Shards: shards})
		defer eng.Close()
		mustAccept(t, submit(eng, model.BeginDeclared(1, 0)))
		mustAccept(t, submit(eng, model.Read(1, 0)))
		mustAccept(t, submit(eng, model.BeginDeclared(5, 0, 1)))
		mustAccept(t, submit(eng, model.WriteFinal(5, 0, 1)))
		tracked := func() *crossTxn {
			eng.registry.mu.Lock()
			defer eng.registry.mu.Unlock()
			return eng.registry.txns[5]
		}
		old := tracked()
		if old == nil {
			t.Fatalf("%d shards: T5 retired behind a live straggler", shards)
		}
		if res := submit(eng, model.BeginDeclared(5, 2, 3)); !errors.Is(res.Err, ErrProtocol) {
			t.Fatalf("%d shards: BEGIN reusing tracked T5 answered %v (%v), want ErrProtocol", shards, res.Outcome(), res.Err)
		}
		if _, live := eng.routes.load(5); live {
			t.Fatalf("%d shards: refused BEGIN left its route behind", shards)
		}
		if e := tracked(); e != old || !slices.Equal(e.parts, []int{0, 1}) {
			t.Fatalf("%d shards: T5's registry entry was replaced or erased", shards)
		}
		if p := retiredOn(eng, 5); p >= 0 {
			t.Fatalf("%d shards: T5 waits in shard %d's retirement list", shards, p)
		}
		if s := eng.Stats(); s.CrossTxns != 1 || s.CrossAborts != 0 {
			t.Fatalf("%d shards: %d cross transactions begun, %d aborted; the second BEGIN never happened", shards, s.CrossTxns, s.CrossAborts)
		}
		// Close first: every shard shuts down and no later run applies
		// anything, making the schedulers safe to inspect directly.
		eng.Close()
		for _, sh := range eng.shards[2:] {
			if sh.sched.Txn(5) != nil {
				t.Fatalf("%d shards: the refused BEGIN left a sub-node on shard %d", shards, sh.idx)
			}
		}
	}
}

// TestStatsCloseRace: Stats must return (not hang) when racing Close.
func TestStatsCloseRace(t *testing.T) {
	for i := 0; i < 20; i++ {
		eng := New(Config{Shards: 2})
		submit(eng, model.BeginDeclared(1, 0))
		submit(eng, model.WriteFinal(1, 0))
		done := make(chan Stats, 1)
		go func() { done <- eng.Stats() }()
		eng.Close()
		s := <-done
		if s.Merged.Completed != 1 {
			t.Fatalf("iter %d: Merged.Completed = %d, want 1", i, s.Merged.Completed)
		}
	}
}

// TestCrossIDReuseStaleLabels is the regression test for stale
// cross-ancestor labels colliding with TxnID reuse: after cross T1 aborts,
// its labels linger lazily on completed nodes; if the same ID is reused
// for a new cross transaction, those stale entries must not pass for the
// new incarnation's — or the label flood stops at them, the registry misses
// the new incarnation's reach-path, and a global cycle commits. A label
// names the incarnation that sourced it, so the stale ones are dead and the
// cycle-closing local write is vetoed; the incarnation-aware referee
// double-checks the accepted subschedule either way.
func TestCrossIDReuseStaleLabels(t *testing.T) {
	log := trace.NewSafeLog()
	eng := New(Config{Shards: 2, Log: log})
	defer eng.Close()
	must := func(res Result) {
		t.Helper()
		if !res.Accepted() {
			t.Fatalf("%v (%v)", res.Outcome(), res.Err)
		}
	}
	// Era 1: long-lived local v reads e0; cross T1 reads e0; local L's
	// write of e0 hands label 1 to L (and arc v→L); local M extends the
	// chain (arc L→M, label 1 on M); then T1 aborts, leaving stale labels.
	must(submit(eng, model.BeginDeclared(5, 0, 8))) // v, shard 0
	must(submit(eng, model.Read(5, 0)))
	must(submit(eng, model.BeginDeclared(1, 0, 9))) // T1 cross {0,1}
	must(submit(eng, model.Read(1, 0)))
	must(submit(eng, model.BeginDeclared(7, 0, 4))) // L, shard 0
	must(submit(eng, model.WriteFinal(7, 0, 4)))
	must(submit(eng, model.BeginDeclared(11, 4, 6))) // M, shard 0
	must(submit(eng, model.Read(11, 4)))
	must(submit(eng, model.WriteFinal(11, 6)))
	if !eng.Abort(1) {
		t.Fatal("abort of T1")
	}
	// T2 links M→T2 while label 1 is dead (pruned from the tail M, but L
	// still carries its stale copy).
	must(submit(eng, model.BeginDeclared(2, 6, 9))) // T2 cross {0,1}
	must(submit(eng, model.Read(2, 6)))
	// Era 2: reuse ID 1 for a fresh cross transaction (L's stale label
	// names the dead incarnation, not this one), then close the loop: T2
	// commits writing e9, new T1 reads it (reach-arc 2→1), and v's write of
	// e8 would complete the path 1→v→L→M→2 — a global cycle — so it must be
	// vetoed.
	must(submit(eng, model.BeginDeclared(1, 8, 9)))
	must(submit(eng, model.Read(1, 8)))
	must(submit(eng, model.WriteFinal(2, 9)))
	must(submit(eng, model.Read(1, 9)))
	res := submit(eng, model.WriteFinal(5, 8))
	if res.Outcome() != OutcomeRejected || res.Aborted != 5 {
		t.Fatalf("cycle-closing write: %v (%v), want rejection aborting T5 (stale label hid the reach-path?)",
			res.Outcome(), res.Err)
	}
	// The reused transaction itself commits fine.
	res = submit(eng, model.WriteFinal(1))
	if !res.Accepted() || res.CompletedTxn != 1 {
		t.Fatalf("reused T1 final: %v (%v)", res.Outcome(), res.Err)
	}
	if err := log.CheckAcceptedCSR(); err != nil {
		t.Fatal(err)
	}
	// The referee actually sees the second incarnation (it must not be
	// blinded by the first incarnation's abort).
	var era2 int
	for _, st := range log.AcceptedSubschedule() {
		if st.Txn == 1 {
			era2++
		}
	}
	if era2 == 0 {
		t.Fatal("referee dropped the reused incarnation's steps")
	}
}

// TestRetirementLandsBeforeTheVisit: cross T1 over shards {0,1} aborts, and
// its ID begins again on the same shards at once, so the BEGIN's visits are
// the first to take the abort's retirement. It must land before the BEGIN:
// after it, it would retire the new incarnation. That incarnation commits
// behind straggler S on shard 1, so the registry keeps tracking it, and
// local L on shard 0 completes downstream of it: T1's label must keep L,
// and T1's own sub-node, from the sweeps.
func TestRetirementLandsBeforeTheVisit(t *testing.T) {
	eng := New(Config{Shards: 2, Policy: func() core.Policy { return core.GreedyC1{} }})
	defer eng.Close()
	mustAccept(t, submit(eng, model.BeginDeclared(9, 1))) // S, shard 1
	mustAccept(t, submit(eng, model.Read(9, 1)))
	mustAccept(t, submit(eng, model.BeginDeclared(1, 0, 1)))
	if !eng.Abort(1) {
		t.Fatal("abort of T1")
	}
	mustAccept(t, submit(eng, model.BeginDeclared(1, 0, 1)))
	mustAccept(t, submit(eng, model.WriteFinal(1, 0, 1)))
	mustAccept(t, submit(eng, model.BeginDeclared(7, 0, 2))) // L, shard 0
	mustAccept(t, submit(eng, model.Read(7, 0)))
	mustAccept(t, submit(eng, model.WriteFinal(7, 2)))
	// Close first: every shard shuts down and no later run applies
	// anything, making the schedulers safe to inspect directly.
	eng.Close()
	if got := completedIDs(eng.shards[0].sched); !slices.Equal(got, []model.TxnID{1, 7}) {
		t.Fatalf("shard 0 retains %v, want T1 and the L its label gates", got)
	}
}
