package engine

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/workload"
)

// driveWorkload feeds one generator's stream into the engine, reacting to
// rejections the way a client session would: a rejected or errored step
// means the transaction is dead (cycle abort, cross-cycle veto, or
// misroute), so the generator discards its remaining plan.
func driveWorkload(eng *Engine, cfg workload.Config) {
	gen := workload.New(cfg)
	for {
		step, ok := gen.Next()
		if !ok {
			return
		}
		res := submit(eng, step)
		switch res.Outcome() {
		case OutcomeAccepted:
		default:
			gen.NotifyAbort(step.Txn)
		}
	}
}

// TestOracleShardedCSR is the equivalence oracle of the sharded engine:
// for every deletion policy, heavy concurrent partition-aware traffic
// (including cross-partition transactions and a straggler) is replayed
// through the offline trace referee, which rebuilds the conflict graph of
// the accepted subschedule from scratch. If sharding, batching, amortized
// GC, or the coordinator barrier ever let a non-CSR schedule through, this
// test fails.
func TestOracleShardedCSR(t *testing.T) {
	policies := map[string]func() core.Policy{
		"nogc":            nil,
		"lemma1":          func() core.Policy { return core.Lemma1Policy{} },
		"greedy-c1":       func() core.Policy { return core.GreedyC1{} },
		"noncurrent-safe": func() core.Policy { return core.NoncurrentSafe{} },
	}
	for name, factory := range policies {
		t.Run(name, func(t *testing.T) {
			log := trace.NewSafeLog()
			eng := New(Config{
				Shards: 4,
				Policy: factory,
				Log:    log,
			})
			defer eng.Close()

			const drivers = 4
			var wg sync.WaitGroup
			for d := 0; d < drivers; d++ {
				wg.Add(1)
				go func(d int) {
					defer wg.Done()
					cfg := workload.Config{
						Entities:         64,
						Txns:             150,
						MaxActive:        4,
						Shards:           4,
						CrossFrac:        0.05,
						DeclareFootprint: true,
						BaseTxnID:        model.TxnID(d * 1_000_000),
						RestartAborted:   true,
						Seed:             int64(100 + d),
					}
					if d == 0 {
						cfg.Straggler = 10
					}
					driveWorkload(eng, cfg)
				}(d)
			}
			wg.Wait()

			if err := log.CheckAcceptedCSR(); err != nil {
				t.Fatalf("policy %s: %v", name, err)
			}
			s := eng.Stats()
			if s.Completed == 0 {
				t.Fatalf("policy %s: nothing completed (stats %+v)", name, s)
			}
			if factory != nil && s.Deleted == 0 {
				t.Errorf("policy %s: GC never deleted anything", name)
			}
			if s.CrossTxns == 0 {
				t.Errorf("policy %s: no cross-partition transactions exercised", name)
			}
			t.Logf("policy %s: %d accepted, %d completed, %d deleted, %d cross, %d prepares, %d cross-aborts",
				name, s.Accepted, s.Completed, s.Deleted, s.CrossTxns, s.Prepares, s.CrossAborts)
		})
	}
}

// TestOracleCrossHeavyCSR is the 2PC stress oracle: a quarter of all
// transactions span partitions (some across three shards), every deletion
// policy runs, and concurrent drivers hammer the engine — run under -race
// in CI. The offline referee rebuilds the conflict graph of the accepted
// subschedule over *logical* transactions (sub-transactions share the
// logical TxnID, so the fold is by construction) and must find it acyclic.
func TestOracleCrossHeavyCSR(t *testing.T) {
	policies := map[string]func() core.Policy{
		"nogc":            nil,
		"lemma1":          func() core.Policy { return core.Lemma1Policy{} },
		"greedy-c1":       func() core.Policy { return core.GreedyC1{} },
		"noncurrent-safe": func() core.Policy { return core.NoncurrentSafe{} },
		"max-safe":        func() core.Policy { return core.MaxSafeExact{} },
	}
	for name, factory := range policies {
		t.Run(name, func(t *testing.T) {
			log := trace.NewSafeLog()
			eng := New(Config{
				Shards: 4,
				Policy: factory,
				Log:    log,
			})
			defer eng.Close()

			const drivers = 4
			var wg sync.WaitGroup
			for d := 0; d < drivers; d++ {
				wg.Add(1)
				go func(d int) {
					defer wg.Done()
					cfg := workload.Config{
						Entities:         48,
						Txns:             200,
						MaxActive:        5,
						Shards:           4,
						CrossFrac:        0.25,
						CrossShards:      2 + d%2, // half the drivers span 3 partitions
						DeclareFootprint: true,
						BaseTxnID:        model.TxnID(d * 1_000_000),
						RestartAborted:   true,
						Seed:             int64(9000 + d),
					}
					if d == 0 {
						cfg.Straggler = 8
					}
					driveWorkload(eng, cfg)
				}(d)
			}
			wg.Wait()

			if err := log.CheckAcceptedCSR(); err != nil {
				t.Fatalf("policy %s: accepted subschedule of logical txns not CSR: %v", name, err)
			}
			s := eng.Stats()
			if s.CrossTxns == 0 || s.Prepares == 0 {
				t.Fatalf("policy %s: cross path unexercised (stats %+v)", name, s)
			}
			if s.Completed == 0 {
				t.Fatalf("policy %s: nothing completed", name)
			}
			if factory != nil && s.Deleted == 0 {
				t.Errorf("policy %s: GC never deleted anything under cross-heavy load", name)
			}
			for i, p := range s.PreparedByShard {
				if p != 0 {
					t.Errorf("policy %s: shard %d leaked %d prepared pins", name, i, p)
				}
			}
			t.Logf("policy %s: %d completed, %d deleted, %d cross, %d prepares, %d cross-aborts, peak kept %d",
				name, s.Completed, s.Deleted, s.CrossTxns, s.Prepares, s.CrossAborts, s.Merged.PeakKept)
		})
	}
}

// TestOracleSingleShardMatchesCore cross-checks that a 1-shard engine's
// accepted subschedule is CSR and its counters agree with the scheduler's:
// the engine adds concurrency plumbing, not semantics.
func TestOracleSingleShardMatchesCore(t *testing.T) {
	log := trace.NewSafeLog()
	eng := New(Config{
		Shards: 1,
		Policy: func() core.Policy { return core.GreedyC1{} },
		Log:    log,
	})
	defer eng.Close()
	driveWorkload(eng, workload.Config{
		Entities: 24, Txns: 300, MaxActive: 6,
		HotFrac: 0.1, DeclareFootprint: true, Seed: 42,
	})
	if err := log.CheckAcceptedCSR(); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.Accepted != s.Merged.Accepted || s.Completed != s.Merged.Completed {
		t.Fatalf("engine/scheduler counter mismatch: %+v vs %+v", s, s.Merged)
	}
}
