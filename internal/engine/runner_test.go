package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
)

// This file pins the shard lock (shard.run): a shard has no goroutine, each
// submitter takes its shard's lock and applies its own request, every
// request is answered, and a submitter waiting for the lock is the shard's
// backlog. Run under -race in CI (the race-cross job).

// slowPolicy is GreedyC1 with a pause in every sweep, so lock holders keep
// the lock long enough for the submitters behind them to block.
type slowPolicy struct{ core.GreedyC1 }

func (slowPolicy) Sweep(sw *core.Sweep) {
	time.Sleep(50 * time.Microsecond)
	core.GreedyC1{}.Sweep(sw)
}

// TestNoStrandedRequest mixes per-step submissions, batches and Stats from
// many goroutines on one and on two shards, with a pause in every sweep, so
// submitters do block behind lock holders. The goroutines meet after every
// round, so the last submitter of a round has no later one to release the
// shard for it: every request must be answered before the deadline.
func TestNoStrandedRequest(t *testing.T) {
	const (
		goroutines = 8
		rounds     = 300
	)
	for _, shards := range []int{1, 2} {
		eng := New(Config{
			Shards: shards,
			Policy: func() core.Policy { return slowPolicy{} },
		})
		var accepted atomic.Int64
		count := func(res Result) {
			if res.Accepted() {
				accepted.Add(1)
			}
		}
		deadline := time.After(30 * time.Second)
		for k := 0; k < rounds; k++ {
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					// Goroutine g owns entities 2g and 2g+1, one per
					// partition of a two-shard engine, so its transactions
					// never conflict with another goroutine's.
					x := model.Entity(2*g + k%2)
					id := model.TxnID(1 + k*goroutines + g)
					steps := []model.Step{model.BeginDeclared(id, x), model.Read(id, x), model.WriteFinal(id, x)}
					switch (g + k) % 3 {
					case 0:
						for _, res := range eng.SubmitBatchInto(nil, steps) {
							count(res)
						}
						return
					case 1:
						eng.Stats()
					}
					for _, st := range steps {
						count(submit(eng, st))
					}
				}(g)
			}
			finished := make(chan struct{})
			go func() { wg.Wait(); close(finished) }()
			select {
			case <-finished:
			case <-deadline:
				t.Fatalf("shards=%d round %d: submitters still waiting after 30s: a request was stranded", shards, k)
			}
		}
		if got, want := accepted.Load(), int64(goroutines*rounds*3); got != want {
			t.Fatalf("shards=%d: %d steps accepted, want %d", shards, got, want)
		}
		eng.Close()
	}
}

// TestBlockedSubmitterCountsInQueueDepth: a submitter waiting for a shard's
// lock counts in its QueueDepths gauge. While one waits, the gauge reads 1;
// once the lock is released the waiter applies its step and it reads 0.
func TestBlockedSubmitterCountsInQueueDepth(t *testing.T) {
	eng := New(Config{Shards: 2})
	defer eng.Close()
	sh := eng.shards[0]

	sh.mu.Lock()
	answered := make(chan Result, 1)
	go func() { answered <- submit(eng, model.BeginDeclared(1, 0)) }()
	deadline := time.Now().Add(30 * time.Second)
	for eng.QueueDepths()[0] != 1 {
		if time.Now().After(deadline) {
			sh.mu.Unlock()
			t.Fatalf("QueueDepths = %v while a submitter waits for shard 0, want 1 on shard 0", eng.QueueDepths())
		}
		time.Sleep(time.Millisecond)
	}
	sh.mu.Unlock()

	select {
	case res := <-answered:
		if !res.Accepted() {
			t.Fatalf("the waiting submitter's BEGIN: %v (%v)", res.Outcome(), res.Err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the waiting submitter never got the lock")
	}
	if d := eng.QueueDepths(); d[0] != 0 || d[1] != 0 {
		t.Fatalf("QueueDepths = %v after the release, want [0 0]", d)
	}
}

// TestOpenStartsNoGoroutine: an engine without a bus runs on its callers'
// goroutines only — Open starts none, submissions leave none behind, and
// Close has none to stop.
func TestOpenStartsNoGoroutine(t *testing.T) {
	before := settledGoroutines()
	eng, _, err := Open(Config{Shards: 4, Policy: func() core.Policy { return core.GreedyC1{} }})
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines after Open, %d before", n, before)
	}
	for id := model.TxnID(1); id <= 8; id++ {
		x := model.Entity(id)
		eng.SubmitBatchInto(nil, []model.Step{model.BeginDeclared(id, x), model.Read(id, x), model.WriteFinal(id, x)})
	}
	eng.Stats()
	eng.Close()
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines after Close, %d before Open", n, before)
	}
}

// settledGoroutines waits for goroutines that earlier tests left winding
// down to exit, and returns the count once it holds still.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still := 0; still < 5; {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}
