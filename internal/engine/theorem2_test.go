package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// sameDecision reports whether two engines decided a step alike: the same
// outcome, the same victim, the same completion.
func sameDecision(a, b Result) bool {
	return a.Outcome() == b.Outcome() && a.Aborted == b.Aborted && a.CompletedTxn == b.CompletedTxn
}

// TestEngineTheorem2Lockstep checks the paper's Theorem 2 on the sharded
// engine: a scheduler that deletes under C1/C2 decides exactly as one that
// never deletes. One goroutine feeds one workload stream, step by step, to
// a nogc engine and to a policy engine; the generator hears of aborts from
// the nogc side, so both see the same stream, and every step must be
// decided alike. The recorded stream is then replayed into a fresh policy
// engine through SubmitBatchInto, whose answers must match the nogc ones
// too. The grid mixes hot spots, stragglers and cross-partition
// transactions over two to four participants.
//
// Random streams never trip an unsafe policy here (CommitGC deletes only
// Sweep.JustCompleted, which the engine's SweepNow leaves NoTxn), so a
// negative control proves the comparison can fail: the paper's Example 1
// under Chain{GreedyC1{NewestFirst: true}, NoncurrentNaive{}} must accept
// T1's final write, which the nogc engine rejects as a cycle.
func TestEngineTheorem2Lockstep(t *testing.T) {
	const seeds = 50
	var steps, rejected, deleted int64
	for _, name := range []string{"lemma1", "greedy-c1", "noncurrent-safe"} {
		policy, _ := core.PolicyByName(name)
		for shards := 2; shards <= 4; shards++ {
			for seed := int64(0); seed < seeds; seed++ {
				ref := New(Config{Shards: shards})
				pol := New(Config{Shards: shards, Policy: policy})
				gen := workload.New(workload.Config{
					Entities:         48,
					Txns:             100,
					MaxActive:        6,
					HotFrac:          0.2,
					Straggler:        int(seed % 10),
					Shards:           shards,
					CrossFrac:        0.3,
					CrossShards:      2 + int(seed)%(shards-1),
					DeclareFootprint: true,
					Seed:             seed,
				})
				var stream []model.Step
				var want []Result
				for st, ok := gen.Next(); ok; st, ok = gen.Next() {
					a, b := submit(ref, st), submit(pol, st)
					if !sameDecision(a, b) {
						t.Fatalf("%s, %d shards, seed %d, step %d %v: nogc %v (aborted %v, completed %v), policy %v (aborted %v, completed %v)",
							name, shards, seed, len(stream), st, a.Outcome(), a.Aborted, a.CompletedTxn, b.Outcome(), b.Aborted, b.CompletedTxn)
					}
					if !a.Accepted() {
						gen.NotifyAbort(st.Txn)
					}
					stream = append(stream, st)
					want = append(want, a)
				}
				steps += int64(len(stream))
				rejected += ref.Stats().Rejected
				deleted += pol.Stats().Deleted
				ref.Close()
				pol.Close()

				for _, chunk := range []int{4, 16} {
					bat := New(Config{Shards: shards, Policy: policy})
					var got []Result
					for i := 0; i < len(stream); i += chunk {
						got = bat.SubmitBatchInto(got, stream[i:min(i+chunk, len(stream))])
					}
					bat.Close()
					for i, a := range want {
						if b := got[i]; !sameDecision(a, b) {
							t.Fatalf("%s, %d shards, seed %d, batches of %d, step %d %v: nogc %v (aborted %v, completed %v), batched %v (aborted %v, completed %v)",
								name, shards, seed, chunk, i, stream[i], a.Outcome(), a.Aborted, a.CompletedTxn, b.Outcome(), b.Aborted, b.CompletedTxn)
						}
					}
				}
			}
		}
	}
	if rejected == 0 || deleted == 0 {
		t.Fatalf("%d rejections, %d deletions: the lockstep compared nothing", rejected, deleted)
	}
	t.Logf("%d steps in lockstep, %d rejected, %d deletions", steps, rejected, deleted)

	// The negative control: Example 1 with declared footprints, then T1's
	// final write, which closes T1 → T2 → T1 in the full graph.
	example := core.Example1Steps()
	for i, st := range example {
		if st.Kind == model.KindBegin {
			example[i] = model.BeginDeclared(st.Txn, core.Ex1X)
		}
	}
	final := model.WriteFinal(core.Ex1T1, core.Ex1X)
	unsafe := func() core.Policy { return core.Chain{core.GreedyC1{NewestFirst: true}, core.NoncurrentNaive{}} }
	for shards := 1; shards <= 2; shards++ {
		ref := New(Config{Shards: shards})
		pol := New(Config{Shards: shards, Policy: unsafe})
		for i, st := range example {
			if a, b := submit(ref, st), submit(pol, st); !sameDecision(a, b) {
				t.Errorf("%d shards, unsafe chain, step %d %v: nogc %v, chain %v; want no divergence before %v",
					shards, i, st, a.Outcome(), b.Outcome(), final)
			}
		}
		if a, b := submit(ref, final), submit(pol, final); a.Outcome() != OutcomeRejected || !b.Accepted() {
			t.Errorf("%d shards, unsafe chain, %v: nogc %v, chain %v; want the chain to accept what nogc rejects",
				shards, final, a.Outcome(), b.Outcome())
		}
		ref.Close()
		pol.Close()
	}
}
