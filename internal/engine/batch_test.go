package engine

import (
	"context"
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
	results := eng.SubmitBatch([]model.Step{
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
	res := eng.Submit(model.Read(4, 0))
	if res.Outcome() != OutcomeRejected || !errors.Is(res.Err, ErrTxnAborted) {
		t.Fatalf("read after batch: %v (%v), want rejected/ErrTxnAborted", res.Outcome(), res.Err)
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
// identical Results and identical engine counters (concurrency aside,
// batching is pure plumbing). The stream spans four shards with a fifth of
// its transactions cross-partition, and every 23rd read is sent one entity
// over — a foreign partition — so cross BEGINs, cross reads, two-phase
// commits and both kinds of misroute go through both doors.
func TestSubmitBatchEquivalentToPerStep(t *testing.T) {
	run := func(submit func(*Engine, model.Step) Result) ([]Result, Stats) {
		eng := New(Config{
			Shards:                4,
			Policy:                func() core.Policy { return core.GreedyC1{} },
			SweepEveryCompletions: 2,
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
	perStep, sa := run(func(eng *Engine, st model.Step) Result { return eng.Submit(st) })
	// Batch of one: same information flow as per-step, so the streams stay
	// step-for-step comparable even under aborts.
	batched, sb := run(func(eng *Engine, st model.Step) Result { return eng.SubmitBatch([]model.Step{st})[0] })

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

// TestSubmitDoorsDoNotAllocate: a partition-local transaction (BEGIN, two
// reads, final write) costs no allocation through either door in steady
// state. Sending the per-step door through a one-step run would cost four.
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
			door() // warm the pools, arenas and ring
		}
		if n := testing.AllocsPerRun(200, door); n != 0 {
			t.Errorf("%s: %v allocs per 4-step transaction, want 0", name, n)
		}
	}
}
