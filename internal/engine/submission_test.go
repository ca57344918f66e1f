package engine

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/workload"
)

// This file pins the submission path (each submitter applying its own
// request under its shard's lock) differentially: the
// engine's aggregate Stats must agree exactly with what the clients
// observed in their Results, and the accepted subschedule must pass the
// offline CSR referee. Any lost request, duplicated reply, or reply
// delivered to the wrong sender shows up as a counter mismatch or a
// non-CSR schedule. Run under -race in CI (the race-cross job), where the
// hand-over of results through the shard locks is also checked.

// resultTally is what a client can prove happened from the Results it was
// handed back.
type resultTally struct {
	submitted, accepted, rejected, errored, completedTxns int64
}

func (t *resultTally) add(o *resultTally) {
	t.submitted += o.submitted
	t.accepted += o.accepted
	t.rejected += o.rejected
	t.errored += o.errored
	t.completedTxns += o.completedTxns
}

// driveBatched feeds one generator's stream through SubmitBatchInto in
// multi-transaction chunks — the pipelined mode — and tallies every
// Result.
func driveBatched(eng *Engine, gen workload.Generator, chunk int, tally *resultTally, onChunk func()) {
	steps := make([]model.Step, 0, chunk)
	results := make([]Result, 0, chunk)
	notified := make(map[model.TxnID]bool)
	for {
		steps = steps[:0]
		for len(steps) < chunk {
			st, ok := gen.Next()
			if !ok {
				break
			}
			steps = append(steps, st)
		}
		if len(steps) == 0 {
			return
		}
		tally.submitted += int64(len(steps))
		results = eng.SubmitBatchInto(results[:0], steps)
		for _, r := range results {
			switch r.Outcome() {
			case OutcomeAccepted:
				tally.accepted++
			case OutcomeRejected:
				tally.rejected++
			default:
				tally.errored++
			}
			if r.CompletedTxn != model.NoTxn {
				tally.completedTxns++
			}
			if r.Aborted != model.NoTxn && !notified[r.Aborted] {
				notified[r.Aborted] = true
				gen.NotifyAbort(r.Aborted)
			}
		}
		if onChunk != nil {
			onChunk()
		}
	}
}

// lastingStraggler keeps one straggler alive on top of a generator's
// stream for as long as the stream lasts. workload.Gen begins a single
// straggler and does not reissue it after an abort, and a straggler reading
// across partitions can be cross-vetoed before retention ever reaches a
// governor watermark; if every driver's dies that early, nothing is left to
// reap. So the stragglers come from here: one begins first and, whenever
// one dies, another under the next ID. Each declares one entity per
// partition, reads a random entity every `every` steps, and commits
// read-only when the stream ends.
type lastingStraggler struct {
	gen                     workload.Generator
	rng                     *rand.Rand
	shards, entities, every int
	next                    model.TxnID // the next straggler's ID
	live                    model.TxnID // the live straggler, NoTxn while none
	since                   int
	ended                   bool // the wrapped stream is exhausted
}

func (s *lastingStraggler) Next() (model.Step, bool) {
	switch {
	case s.live == model.NoTxn && !s.ended:
		s.live, s.next, s.since = s.next, s.next+1, 0
		fp := make([]model.Entity, s.shards)
		for i := range fp {
			fp[i] = model.Entity(i)
		}
		return model.BeginDeclared(s.live, fp...), true
	case s.live != model.NoTxn && s.since >= s.every:
		s.since = 0
		return model.Read(s.live, model.Entity(s.rng.Intn(s.entities))), true
	}
	s.since++
	if st, ok := s.gen.Next(); ok {
		return st, true
	}
	s.ended = true
	if id := s.live; id != model.NoTxn {
		s.live = model.NoTxn
		return model.WriteFinal(id), true
	}
	return model.Step{}, false
}

func (s *lastingStraggler) NotifyAbort(id model.TxnID) {
	if id == s.live {
		s.live = model.NoTxn
		return
	}
	s.gen.NotifyAbort(id)
}

// checkTally asserts the engine's aggregate counters equal the union of
// what the clients observed. Aborted is deliberately not compared: the
// governor (and 2PC sibling aborts) legitimately abort transactions
// without a client step carrying the news.
func checkTally(t *testing.T, eng *Engine, want *resultTally) {
	t.Helper()
	s := eng.Stats()
	if s.Submitted != want.submitted {
		t.Errorf("Stats.Submitted = %d, clients submitted %d", s.Submitted, want.submitted)
	}
	if s.Accepted != want.accepted {
		t.Errorf("Stats.Accepted = %d, clients saw %d accepted", s.Accepted, want.accepted)
	}
	if s.Rejected != want.rejected {
		t.Errorf("Stats.Rejected = %d, clients saw %d rejected", s.Rejected, want.rejected)
	}
	if s.Completed != want.completedTxns {
		t.Errorf("Stats.Completed = %d, clients saw %d completions", s.Completed, want.completedTxns)
	}
}

// TestSubmissionDifferentialLocal: partition-local traffic only, whole
// pipelined batches, four concurrent drivers. Every counter must match and
// the accepted subschedule must be CSR.
func TestSubmissionDifferentialLocal(t *testing.T) {
	log := trace.NewSafeLog()
	eng := New(Config{
		Shards: 4,
		Policy: func() core.Policy { return core.GreedyC1{} },
		Log:    log,
	})
	defer eng.Close()

	const drivers = 4
	var mu sync.Mutex
	var total resultTally
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			var tally resultTally
			driveBatched(eng, workload.New(workload.Config{
				Entities: 64, Txns: 200, MaxActive: 4,
				Shards: 4, DeclareFootprint: true,
				BaseTxnID: model.TxnID(d * 1_000_000), RestartAborted: true,
				Seed: int64(400 + d),
			}), 24, &tally, nil)
			mu.Lock()
			total.add(&tally)
			mu.Unlock()
		}(d)
	}
	wg.Wait()

	if err := log.CheckAcceptedCSR(); err != nil {
		t.Fatalf("accepted subschedule not CSR: %v", err)
	}
	checkTally(t, eng, &total)
	if s := eng.Stats(); s.Completed == 0 || s.Deleted == 0 {
		t.Fatalf("workload did not exercise completion+GC (stats %+v)", s)
	}
}

// TestSubmissionDifferentialCrossHeavy: a quarter of transactions span
// partitions (2PC and registry labels behind the same shard locks).
func TestSubmissionDifferentialCrossHeavy(t *testing.T) {
	log := trace.NewSafeLog()
	eng := New(Config{
		Shards: 4,
		Policy: func() core.Policy { return core.GreedyC1{} },
		Log:    log,
	})
	defer eng.Close()

	const drivers = 4
	var mu sync.Mutex
	var total resultTally
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			var tally resultTally
			driveBatched(eng, workload.New(workload.Config{
				Entities: 48, Txns: 200, MaxActive: 5,
				Shards: 4, CrossFrac: 0.25, CrossShards: 2 + d%2,
				DeclareFootprint: true,
				BaseTxnID:        model.TxnID(d * 1_000_000), RestartAborted: true,
				Seed: int64(4000 + d),
			}), 24, &tally, nil)
			mu.Lock()
			total.add(&tally)
			mu.Unlock()
		}(d)
	}
	wg.Wait()

	if err := log.CheckAcceptedCSR(); err != nil {
		t.Fatalf("accepted subschedule of logical txns not CSR: %v", err)
	}
	checkTally(t, eng, &total)
	s := eng.Stats()
	if s.CrossTxns == 0 || s.Prepares == 0 {
		t.Fatalf("cross path unexercised (stats %+v)", s)
	}
	for i, p := range s.PreparedByShard {
		if p != 0 {
			t.Errorf("shard %d leaked %d prepared pins", i, p)
		}
	}
}

// TestSubmissionDifferentialGovernorReaping: stragglers hold arcs open
// under a low retention watermark, so the governor reaps concurrently with
// submission traffic — the reap's reqOldest/reqSweep visits and the
// victims' dead-route rejections all take the same shard locks.
func TestSubmissionDifferentialGovernorReaping(t *testing.T) {
	log := trace.NewSafeLog()
	eng := New(Config{
		Shards: 4,
		Policy: func() core.Policy { return core.GreedyC1{} }, // no RetentionWatermark: paced explicitly per chunk
		Log:    log,
	})
	defer eng.Close()

	const drivers = 4
	var mu sync.Mutex
	var total resultTally
	var wg sync.WaitGroup
	var chunks atomic.Int64
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			var tally resultTally
			// Every driver keeps a straggler alive so each stream keeps arcs
			// open; the governor must reap to hold the watermark.
			gen := &lastingStraggler{
				gen: workload.New(workload.Config{
					Entities: 48, Txns: 250, MaxActive: 5,
					Shards: 4, DeclareFootprint: true,
					BaseTxnID: model.TxnID(d * 1_000_000), RestartAborted: true,
					Seed: int64(7000 + d),
				}),
				rng:    rand.New(rand.NewSource(int64(7100 + d))),
				shards: 4, entities: 48, every: 60 - 4*d,
				next: model.TxnID(d*1_000_000 + 500_000),
			}
			driveBatched(eng, gen, 24, &tally, func() {
				if chunks.Add(1)%4 == 0 {
					eng.govern(32)
				}
			})
			mu.Lock()
			total.add(&tally)
			mu.Unlock()
		}(d)
	}
	wg.Wait()
	eng.govern(32)

	if err := log.CheckAcceptedCSR(); err != nil {
		t.Fatalf("accepted subschedule not CSR under reaping: %v", err)
	}
	checkTally(t, eng, &total)
	s := eng.Stats()
	if s.Reaped == 0 {
		t.Fatalf("governor never reaped (stats %+v)", s)
	}
	if s.Completed == 0 || s.Deleted == 0 {
		t.Fatalf("workload did not exercise completion+GC (stats %+v)", s)
	}
}
