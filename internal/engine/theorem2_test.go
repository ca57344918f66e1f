package engine

import (
	"fmt"
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
	for _, name := range theorem2Policies {
		for shards := 2; shards <= 4; shards++ {
			for seed := int64(0); seed < seeds; seed++ {
				n, r, d := theorem2Cell(t, name, shards, theorem2Workload(shards, seed, 0.3, 0.2, int(seed%10)), true, 4, 16)
				steps, rejected, deleted = steps+n, rejected+r, deleted+d
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

// FuzzEngineTheorem2 is TestEngineTheorem2Lockstep with the cell drawn
// from the input: the policy, two to four shards, the seed, the cross and
// hot fractions in percent, the straggler's reads and the batch chunk.
//
// The batched replay is held to a nogc engine fed the same batches, not to
// the per-step answers. A window applies each shard's share in turn, so two
// cross transactions' reads bound for different shards can reach the cross
// registry in another order than submitted, and the registry vetoes
// whichever closes the cycle second, as it would for two concurrent
// clients. The corpus entry cross-veto-order is such a cell: in batches of
// 49, T10's read is vetoed where T7's was per step.
func FuzzEngineTheorem2(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1), uint8(30), uint8(20), uint8(0), uint8(3))
	f.Add(uint8(1), uint8(1), int64(7), uint8(30), uint8(20), uint8(9), uint8(15))
	f.Add(uint8(2), uint8(2), int64(42), uint8(60), uint8(0), uint8(4), uint8(0))
	f.Add(uint8(1), uint8(2), int64(-3), uint8(100), uint8(100), uint8(15), uint8(63))
	f.Fuzz(func(t *testing.T, policy, shards uint8, seed int64, crossPct, hotPct, straggler, chunk uint8) {
		n := 2 + int(shards%3)
		wcfg := theorem2Workload(n, seed, float64(crossPct%101)/100, float64(hotPct%101)/100, int(straggler%16))
		theorem2Cell(t, theorem2Policies[int(policy)%len(theorem2Policies)], n, wcfg, false, 1+int(chunk%64))
	})
}

// theorem2Policies are the deleting policies the lockstep holds to a nogc
// engine.
var theorem2Policies = []string{"lemma1", "greedy-c1", "noncurrent-safe"}

// theorem2Workload is a lockstep cell's stream: 100 transactions over 48
// entities, at most six active, with declared footprints; a cross one spans
// from two to shards partitions, as the seed picks.
func theorem2Workload(shards int, seed int64, crossFrac, hotFrac float64, straggler int) workload.Config {
	return workload.Config{
		Entities:         48,
		Txns:             100,
		MaxActive:        6,
		HotFrac:          hotFrac,
		Straggler:        straggler,
		Shards:           shards,
		CrossFrac:        crossFrac,
		CrossShards:      2 + int(uint64(seed)%uint64(shards-1)),
		DeclareFootprint: true,
		Seed:             seed,
	}
}

// theorem2Cell is one cell of the lockstep. One goroutine feeds the stream
// wcfg generates, step by step, to a nogc engine and to one under the named
// policy; the generator hears of aborts from the nogc side, so both see the
// same stream. The recorded stream is then replayed into a fresh policy
// engine through SubmitBatchInto in chunks of each size given, and its
// answers are held to the per-step nogc ones (perStep) or to a nogc engine
// fed the same batches. Every step must be decided alike, or the cell fails
// t. It returns the steps, the nogc engine's rejections and the policy
// engine's deletions.
func theorem2Cell(t testing.TB, name string, shards int, wcfg workload.Config, perStep bool, chunks ...int) (steps, rejected, deleted int64) {
	t.Helper()
	policy, ok := core.PolicyByName(name)
	if !ok {
		t.Fatalf("no policy %q", name)
	}
	cell := fmt.Sprintf("%s, %d shards, seed %d, cross %.2f over %d, hot %.2f, straggler %d",
		name, shards, wcfg.Seed, wcfg.CrossFrac, wcfg.CrossShards, wcfg.HotFrac, wcfg.Straggler)
	ref := New(Config{Shards: shards})
	pol := New(Config{Shards: shards, Policy: policy})
	defer ref.Close()
	defer pol.Close()
	gen := workload.New(wcfg)
	var stream []model.Step
	var want []Result
	for st, ok := gen.Next(); ok; st, ok = gen.Next() {
		a, b := submit(ref, st), submit(pol, st)
		if !sameDecision(a, b) {
			t.Fatalf("%s, step %d %v: nogc %v (aborted %v, completed %v), policy %v (aborted %v, completed %v)",
				cell, len(stream), st, a.Outcome(), a.Aborted, a.CompletedTxn, b.Outcome(), b.Aborted, b.CompletedTxn)
		}
		if !a.Accepted() {
			gen.NotifyAbort(st.Txn)
		}
		stream = append(stream, st)
		want = append(want, a)
	}

	batched := func(policy func() core.Policy, chunk int) []Result {
		bat := New(Config{Shards: shards, Policy: policy})
		defer bat.Close()
		var got []Result
		for i := 0; i < len(stream); i += chunk {
			got = bat.SubmitBatchInto(got, stream[i:min(i+chunk, len(stream))])
		}
		return got
	}
	for _, chunk := range chunks {
		got := batched(policy, chunk)
		if !perStep {
			want = batched(nil, chunk)
		}
		for i, a := range want {
			if b := got[i]; !sameDecision(a, b) {
				t.Fatalf("%s, batches of %d, step %d %v: nogc %v (aborted %v, completed %v), batched %v (aborted %v, completed %v)",
					cell, chunk, i, stream[i], a.Outcome(), a.Aborted, a.CompletedTxn, b.Outcome(), b.Aborted, b.CompletedTxn)
			}
		}
	}
	return int64(len(stream)), ref.Stats().Rejected, pol.Stats().Deleted
}
