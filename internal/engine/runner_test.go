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

// This file pins the runner protocol (shard.serve): a shard has no
// goroutine, the submitters waiting on it run it, and no request is left
// in a ring that no one will run. Run under -race in CI (the race-cross
// job).

// slowPolicy is GreedyC1 with a pause in every sweep, so runners hold the
// flag long enough for the submitters queued behind them to park.
type slowPolicy struct{ core.GreedyC1 }

func (slowPolicy) Sweep(sw *core.Sweep) {
	time.Sleep(50 * time.Microsecond)
	core.GreedyC1{}.Sweep(sw)
}

// TestNoStrandedRequest mixes per-step submissions, batches and Stats from
// many goroutines on one and on two shards, with a yield between a runner
// releasing its flag and re-checking the ring — the window in which a
// producer publishes, finds the flag taken and parks — and a pause in every
// sweep, so producers do park behind runners. The goroutines meet after
// every round, so the last producer of a round has no later submitter to
// run the shard for it: every request must be answered before the deadline,
// and a runner that left without the re-check strands that producer.
func TestNoStrandedRequest(t *testing.T) {
	testHookReleased = func(*shard) { runtime.Gosched() }
	defer func() { testHookReleased = nil }()
	const (
		goroutines = 8
		rounds     = 300
	)
	for _, shards := range []int{1, 2} {
		eng := New(Config{
			Shards:                shards,
			Policy:                func() core.Policy { return slowPolicy{} },
			SweepEveryCompletions: 2,
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
						for _, res := range eng.SubmitBatch(steps) {
							count(res)
						}
						return
					case 1:
						eng.Stats()
					}
					for _, st := range steps {
						count(eng.Submit(st))
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

// TestRunnerHandsOff parks a backlog of requests behind a held runner flag,
// then leaves as a runner does (release, Nudge). The producer at the head
// wakes and runs the shard; each runner serves its own request, the rest of
// that run and at most one run more, then hands the ring to the next head,
// so no submitter is pinned to the backlog and every request is answered.
func TestRunnerHandsOff(t *testing.T) {
	eng := New(Config{Shards: 1})
	defer eng.Close()
	sh := eng.shards[0]
	var parks atomic.Int64
	var mu sync.Mutex
	var served []int
	testHookPark = func() { parks.Add(1) }
	testHookServed = func(_ *shard, n int) {
		mu.Lock()
		served = append(served, n)
		mu.Unlock()
	}
	defer func() { testHookPark, testHookServed = nil, nil }()

	// Hold the flag, as a runner busy elsewhere would, so every submitter
	// publishes and parks.
	sh.running.Store(true)
	const waiters = 3 * runLength // under queueDepth: every request is published
	var wg sync.WaitGroup
	var lost atomic.Int64
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := sh.do(request{kind: reqStats}); !ok {
				lost.Add(1)
			}
		}()
	}
	// Every waiter is asleep once the park count reaches the backlog and
	// stays put: a waiter still spinning would park within microseconds.
	deadline := time.Now().Add(30 * time.Second)
	for last := int64(-1); ; {
		time.Sleep(20 * time.Millisecond)
		n := parks.Load()
		if n >= waiters && n == last && sh.depth.Load() == waiters {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d parks, depth %d: the backlog never settled", n, sh.depth.Load())
		}
		last = n
	}

	// Leave as a runner does: release the flag, then re-check the ring.
	sh.running.Store(false)
	sh.mb.Nudge()
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("the backlog was not drained: a hand-off was lost")
	}
	if lost.Load() != 0 {
		t.Fatalf("%d requests lost", lost.Load())
	}
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for _, n := range served {
		if n > 2*runLength {
			t.Errorf("a runner served %d requests, want at most %d: its own run and one more", n, 2*runLength)
		}
		total += n
	}
	if total != waiters {
		t.Fatalf("runners served %d requests, want %d", total, waiters)
	}
	if min := (waiters + 2*runLength - 1) / (2 * runLength); len(served) < min {
		t.Fatalf("%d runners drained %d requests, want at least %d hand-offs", len(served), waiters, min)
	}
}

// TestHandOffPastUnarmedHead: the oldest request on a ring belongs to a
// producer not waiting on it yet (Start allows that), and a submitter
// parked behind it has its bell armed only on its own, later request. A
// runner leaving the ring must still wake that sleeper, or both requests
// wait for traffic that may never come.
func TestHandOffPastUnarmedHead(t *testing.T) {
	eng := New(Config{Shards: 1})
	defer eng.Close()
	sh := eng.shards[0]
	var parks atomic.Int64
	testHookPark = func() { parks.Add(1) }
	defer func() { testHookPark = nil }()

	sh.running.Store(true)
	head := sh.start(request{kind: reqStats}) // published, not waited on yet
	answered := make(chan bool, 1)
	go func() {
		_, ok := sh.do(request{kind: reqStats})
		answered <- ok
	}()
	deadline := time.Now().Add(30 * time.Second)
	for parks.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the second submitter never parked")
		}
		time.Sleep(time.Millisecond)
	}

	// Leave as a runner does: release the flag, then re-check the ring.
	sh.running.Store(false)
	sh.mb.Nudge()
	select {
	case ok := <-answered:
		if !ok {
			t.Fatal("the parked request was lost")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the submitter parked behind an unwaited request was never woken")
	}
	cs := [1]call{head}
	await(cs[:])
	if _, ok := cs[0].redeem(); !ok {
		t.Fatal("the head request was lost")
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
		eng.SubmitBatch([]model.Step{model.BeginDeclared(id, x), model.Read(id, x), model.WriteFinal(id, x)})
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
