package engine

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// TestStatsDifferential audits the Merge/snapshot consistency contract: the
// merged per-shard scheduler stats must equal the engine-wide totals after a
// mixed local/cross workload. The workload is conflict-free by construction
// so every count is exact: L local transactions (one read, one final write)
// and C cross transactions with exactly two participants each (one read, a
// two-entity final write through 2PC), then M misrouted transactions that
// abort.
func TestStatsDifferential(t *testing.T) {
	const shards = 4
	const L, C, M = 40, 12, 5
	eng := New(Config{Shards: shards})
	defer eng.Close()

	// Entities are unique per transaction so no conflict arcs ever form.
	next := model.Entity(0)
	take := func(part int) model.Entity {
		for {
			x := next
			next++
			if int(x)%shards == part {
				return x
			}
		}
	}

	for i := 0; i < L; i++ {
		x := take(i % shards)
		id := model.TxnID(i)
		if res := eng.Submit(model.BeginDeclared(id, x)); !res.Accepted() {
			t.Fatalf("local begin %d: %v (%v)", i, res.Outcome(), res.Err)
		}
		if res := eng.Submit(model.Read(id, x)); !res.Accepted() {
			t.Fatalf("local read %d: %v (%v)", i, res.Outcome(), res.Err)
		}
		res := eng.Submit(model.WriteFinal(id, x))
		if !res.Accepted() || res.CompletedTxn != id {
			t.Fatalf("local write %d: %v (%v)", i, res.Outcome(), res.Err)
		}
	}
	for i := 0; i < C; i++ {
		a, b := take(i%shards), take((i+1)%shards)
		id := model.TxnID(1000 + i)
		if res := eng.Submit(model.BeginDeclared(id, a, b)); !res.Accepted() {
			t.Fatalf("cross begin %d: %v (%v)", i, res.Outcome(), res.Err)
		}
		if res := eng.Submit(model.Read(id, a)); !res.Accepted() {
			t.Fatalf("cross read %d: %v (%v)", i, res.Outcome(), res.Err)
		}
		res := eng.Submit(model.WriteFinal(id, a, b))
		if !res.Accepted() || res.CompletedTxn != id {
			t.Fatalf("cross write %d: %v (%v)", i, res.Outcome(), res.Err)
		}
	}
	for i := 0; i < M; i++ {
		// A single-partition transaction that strays: reading an entity of
		// the next partition is a misroute and aborts it.
		home := i % shards
		id := model.TxnID(2000 + i)
		if res := eng.Submit(model.BeginDeclared(id, take(home))); !res.Accepted() {
			t.Fatalf("stray begin %d: %v (%v)", i, res.Outcome(), res.Err)
		}
		res := eng.Submit(model.Read(id, take((home+1)%shards)))
		if !errors.Is(res.Err, ErrMisroute) {
			t.Fatalf("stray read %d: err = %v, want ErrMisroute", i, res.Err)
		}
	}

	st := eng.Stats()

	// The snapshot's Merged must be exactly the fold of its PerShard slice.
	var fold core.Stats
	for _, cs := range st.PerShard {
		fold.Merge(cs)
	}
	if fold != st.Merged {
		t.Fatalf("Merged is not the fold of PerShard:\n merged: %+v\n   fold: %+v", st.Merged, fold)
	}

	// Engine-wide totals against the merged scheduler counters. A cross
	// transaction runs one sub-transaction per participant (two here), so
	// scheduler-level begins/writes/completions count it twice while the
	// engine counts logical transactions once.
	assertEq := func(name string, got, want int64) {
		t.Helper()
		if got != want {
			t.Fatalf("%s = %d, want %d (stats %+v)", name, got, want, st)
		}
	}
	assertEq("Completed", st.Completed, L+C)
	assertEq("Merged.Completed", st.Merged.Completed, L+2*C)
	assertEq("Merged.Begins", st.Merged.Begins, L+2*C+M)
	assertEq("Merged.Writes", st.Merged.Writes, L+2*C)
	assertEq("Merged.Reads", st.Merged.Reads, L+C)
	assertEq("Prepares", st.Prepares, 2*C)
	assertEq("CrossTxns", st.CrossTxns, C)
	assertEq("Misroutes", st.Misroutes, M)
	assertEq("Aborted", st.Aborted, M)
	assertEq("Merged.Aborts", st.Merged.Aborts, M)
	assertEq("Merged.Rejected", st.Merged.Rejected, 0) // misroutes abort pre-scheduler
	assertEq("CrossAborts", st.CrossAborts, 0)
	assertEq("Shed", st.Shed, 0)
}

// TestGaugesUnderConcurrentLoad hammers the lock-free gauge accessors —
// QueueDepths, RetainedCounts, PreparedCounts, and the Gauges snapshot the
// metrics endpoint polls — while a mixed local/cross workload runs, then
// checks the monotone engine counters never regress and every gauge drains
// to zero once the engine closes. Run under -race this is also the data-race
// proof for the gauge paths.
func TestGaugesUnderConcurrentLoad(t *testing.T) {
	const shards = 4
	eng := New(Config{Shards: shards})

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastEmitted [5]int64 // completed, accepted, deleted, sweeps, crossTxns
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := eng.Gauges()
				for _, vs := range [][]int64{g.QueueDepth, g.Retained, g.Prepared} {
					if len(vs) != shards {
						t.Errorf("gauge slice has %d entries, want %d", len(vs), shards)
						return
					}
					for i, v := range vs {
						if v < 0 {
							t.Errorf("negative gauge at shard %d: %d", i, v)
							return
						}
					}
				}
				st := eng.Stats()
				now := [5]int64{st.Completed, st.Accepted, st.Deleted, st.Sweeps, st.CrossTxns}
				for i, v := range now {
					if v < lastEmitted[i] {
						t.Errorf("monotone counter %d regressed: %d -> %d", i, lastEmitted[i], v)
						return
					}
				}
				lastEmitted = now
			}
		}()
	}

	var writers sync.WaitGroup
	for w := 0; w < shards; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				id := model.TxnID(w*10_000 + i)
				x := model.Entity(w + shards*(w*200+i)) // unique, partition w
				if !eng.Submit(model.BeginDeclared(id, x)).Accepted() {
					continue
				}
				eng.Submit(model.Read(id, x))
				eng.Submit(model.WriteFinal(id, x))
			}
			// A handful of cross transactions to exercise the prepared gauge.
			for i := 0; i < 20; i++ {
				id := model.TxnID(100_000 + w*1_000 + i)
				a := model.Entity(w + shards*(1_000_000+w*100+i))
				b := a + 1 // next partition (mod shards)
				if !eng.Submit(model.BeginDeclared(id, a, b)).Accepted() {
					continue
				}
				eng.Submit(model.WriteFinal(id, a, b))
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	eng.Close()
	g := eng.Gauges()
	for _, vs := range [][]int64{g.QueueDepth, g.Retained, g.Prepared} {
		for i, v := range vs {
			if v != 0 {
				t.Fatalf("gauge at shard %d = %d after Close, want 0 (snapshot %+v)", i, v, g)
			}
		}
	}
}
