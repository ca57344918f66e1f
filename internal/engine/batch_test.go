package engine

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestSubmitBatchSemantics pins SubmitBatch to Submit's semantics over a
// mixed pipeline: two interleaved local transactions, a cross-partition
// transaction (immediate sub-transaction steps + two-phase-commit final), a
// step for an unknown transaction — and, since 2PC, the concurrent local T2
// surviving the cross commit.
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
	results := eng.SubmitBatch(steps)
	if len(results) != len(steps) {
		t.Fatalf("got %d results for %d steps", len(results), len(steps))
	}
	want := []Outcome{
		OutcomeAccepted, OutcomeAccepted, OutcomeAccepted, OutcomeAccepted,
		OutcomeAccepted, OutcomeAccepted, OutcomeAccepted, OutcomeAccepted,
		OutcomeRejected, OutcomeAccepted,
	}
	for i, w := range want {
		if results[i].Outcome != w {
			t.Fatalf("step %d (%v): outcome %v (err=%v), want %v",
				i, steps[i], results[i].Outcome, results[i].Err, w)
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
	results := eng.SubmitBatch([]model.Step{
		model.BeginDeclared(1, 0),
		model.Read(1, 0),
		model.Read(1, 3), // partition 3: misroute, aborts T1
		model.Read(1, 0), // now unknown
		model.BeginDeclared(2, 0),
		model.WriteFinal(2, 0),
	})
	if results[2].Outcome != OutcomeRejected || !errors.Is(results[2].Err, ErrMisroute) {
		t.Fatalf("misroute step: %v (%v)", results[2].Outcome, results[2].Err)
	}
	if results[3].Outcome != OutcomeRejected || !errors.Is(results[3].Err, ErrTxnAborted) {
		t.Fatalf("post-abort step: %v (%v)", results[3].Outcome, results[3].Err)
	}
	if !results[5].Accepted() || results[5].CompletedTxn != 2 {
		t.Fatalf("T2 final: %v, CompletedTxn=%v", results[5].Outcome, results[5].CompletedTxn)
	}
}

// TestSubmitBatchDuplicateBegin: a BEGIN reusing a still-routed ID errors
// without disturbing the live transaction, and a BEGIN whose ID collides
// with a retained completed transaction fails without poisoning the route
// (the SubmitBatch analogue of TestReusedIDDoesNotPoisonRoute).
func TestSubmitBatchDuplicateBegin(t *testing.T) {
	eng := New(Config{Shards: 2}) // nogc: completed txns stay retained
	defer eng.Close()
	results := eng.SubmitBatch([]model.Step{
		model.BeginDeclared(4, 0),
		model.BeginDeclared(4, 0), // duplicate while live
		model.WriteFinal(4, 0),
		model.BeginDeclared(4, 0), // reuse of a retained completed ID
		model.Read(4, 0),          // must be unknown, not routed
	})
	if results[1].Outcome != OutcomeError {
		t.Fatalf("duplicate live begin: %v, want error", results[1].Outcome)
	}
	if !results[2].Accepted() || results[2].CompletedTxn != 4 {
		t.Fatalf("final: %v", results[2].Outcome)
	}
	if results[3].Outcome != OutcomeError {
		t.Fatalf("retained-ID begin: %v, want error", results[3].Outcome)
	}
	// The read was pipelined in the same shard run as the failed BEGIN, so
	// it reaches the scheduler and reports its protocol error (documented
	// batch divergence: per-step clients would see rejected/ErrTxnAborted).
	if results[4].Outcome != OutcomeError {
		t.Fatalf("read after failed reuse: %v (%v), want error", results[4].Outcome, results[4].Err)
	}
	// What matters is that the failed BEGIN did not poison the route: a
	// later per-step submission must see the ID as unknown, not routed.
	res := eng.Submit(model.Read(4, 0))
	if res.Outcome != OutcomeRejected || !errors.Is(res.Err, ErrTxnAborted) {
		t.Fatalf("read after batch: %v (%v), want rejected/ErrTxnAborted", res.Outcome, res.Err)
	}
}

// TestSubmitBatchConcurrentCSR hammers SubmitBatch from many goroutines —
// through Engine.Drive fed by workload generators — with mixed local and
// cross-partition traffic and a GC policy, then replays the accepted
// subschedule through the offline CSR referee. Run under -race this is
// the batch path's data-race and safety oracle.
func TestSubmitBatchConcurrentCSR(t *testing.T) {
	log := trace.NewSafeLog()
	eng := New(Config{
		Shards:                4,
		Policy:                func() core.Policy { return core.GreedyC1{} },
		SweepEveryCompletions: 3,
		BatchSize:             16,
		Log:                   log,
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
			eng.Drive(gen, 8)
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
// workload through per-step Submit and through SubmitBatch and demands
// identical outcomes and identical engine counters (concurrency aside,
// batching is pure plumbing).
func TestSubmitBatchEquivalentToPerStep(t *testing.T) {
	build := func() (*Engine, *workload.Gen) {
		eng := New(Config{
			Shards:                2,
			Policy:                func() core.Policy { return core.GreedyC1{} },
			SweepEveryCompletions: 2,
		})
		gen := workload.New(workload.Config{
			Entities: 32, Txns: 200, MaxActive: 4,
			Shards: 2, DeclareFootprint: true, Seed: 9,
		})
		return eng, gen
	}

	engA, genA := build()
	defer engA.Close()
	var perStep []Outcome
	for {
		st, ok := genA.Next()
		if !ok {
			break
		}
		res := engA.Submit(st)
		perStep = append(perStep, res.Outcome)
		switch res.Outcome {
		case OutcomeAccepted:
		default:
			genA.NotifyAbort(st.Txn)
		}
	}

	engB, genB := build()
	defer engB.Close()
	var batched []Outcome
	steps := make([]model.Step, 0, 1)
	for {
		st, ok := genB.Next()
		if !ok {
			break
		}
		// Batch of one: same information flow as per-step, so the streams
		// stay step-for-step comparable even under aborts.
		steps = append(steps[:0], st)
		res := engB.SubmitBatch(steps)[0]
		batched = append(batched, res.Outcome)
		switch res.Outcome {
		case OutcomeAccepted:
		default:
			genB.NotifyAbort(st.Txn)
		}
	}

	if len(perStep) != len(batched) {
		t.Fatalf("step counts diverged: %d vs %d", len(perStep), len(batched))
	}
	for i := range perStep {
		if perStep[i] != batched[i] {
			t.Fatalf("outcome %d diverged: per-step %v vs batched %v", i, perStep[i], batched[i])
		}
	}
	sa, sb := engA.Stats(), engB.Stats()
	if sa.Accepted != sb.Accepted || sa.Completed != sb.Completed || sa.Aborted != sb.Aborted {
		t.Fatalf("counters diverged: per-step %+v vs batched %+v", sa, sb)
	}
}
