package engine

import (
	"errors"
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
// decided alike. Every sweep of the policy engines first checks that what
// it will skip could not be deleted (exact). The recorded stream is then
// replayed into a fresh policy engine through SubmitBatchInto, whose
// answers must match the nogc ones too. The grid mixes hot spots,
// stragglers and cross-partition transactions over two to four
// participants.
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
// Every sweep of the policy engines runs the exactness check (exact).
//
// The batched replay is held to a nogc engine fed the same batches, not to
// the per-step answers. A window applies each shard's share in turn, so two
// cross transactions' reads bound for different shards can reach the cross
// registry in another order than submitted, and the registry vetoes
// whichever closes the cycle second, as it would for two concurrent
// clients. The corpus entry cross-veto-order is such a cell: in batches of
// 49, T10's read is vetoed where T7's was per step (TestBatchCrossVetoOrder).
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

// TestBatchCrossVetoOrder replays the cell of the fuzz corpus entry
// cross-veto-order (noncurrent-safe, four shards, seed 44, cross 0.37, hot
// 0.05, a four-read straggler, batches of 49). The batch door applies a
// window shard by shard, so two cross transactions' reads bound for
// different shards reach the cross registry in window order, not submission
// order, and the registry vetoes whichever closes the cycle second: T10's
// read in batches, T7's per step, as it could for two concurrent clients.
// That is the door's documented freedom, kept because ordering cross reads
// across shards would end a window at each one. Theorem 2 holds on either
// side of it: the batched policy run decides every step as a nogc engine
// fed the same batches. Every step on which the batches answer otherwise
// than per-step submission belongs to T7 or T10.
func TestBatchCrossVetoOrder(t *testing.T) {
	const shards, chunk = 4, 49
	policy, _ := core.PolicyByName("noncurrent-safe")
	wcfg := theorem2Workload(shards, 44, 0.37, 0.05, 4)
	stream, perStep, _, _ := theorem2Lockstep(t, "cross-veto-order", policy, shards, wcfg)
	nogc := submitChunks(shards, nil, stream, chunk)
	batched := submitChunks(shards, policy, stream, chunk)
	for i, a := range nogc {
		if b := batched[i]; !sameDecision(a, b) {
			t.Fatalf("batches of %d, step %d %v: nogc %v (aborted %v), policy %v (aborted %v)",
				chunk, i, stream[i], a.Outcome(), a.Aborted, b.Outcome(), b.Aborted)
		}
	}
	// vetoed reports whether res is the registry's veto of txn's read.
	vetoed := func(res Result, txn model.TxnID) bool {
		return res.Aborted == txn && errors.Is(res.Err, ErrCrossCycle)
	}
	var t10, t7 bool
	for i, st := range stream {
		a, b := perStep[i], nogc[i]
		if sameDecision(a, b) {
			continue
		}
		switch {
		case st.Txn != 7 && st.Txn != 10:
			t.Errorf("step %d %v: per step %v (%v), batched %v (%v); only T7 and T10 may differ",
				i, st, a.Outcome(), a.Err, b.Outcome(), b.Err)
		case st.Txn == 10 && st.Kind == model.KindRead && a.Accepted() && vetoed(b, 10):
			t10 = true
		case st.Txn == 7 && st.Kind == model.KindRead && vetoed(a, 7) && b.Accepted():
			t7 = true
		}
	}
	if !t10 || !t7 {
		t.Fatalf("the veto did not move from T7's read per step to T10's in batches (T10 vetoed only batched: %v; T7 only per step: %v)", t10, t7)
	}
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
// policy (theorem2Lockstep). The recorded stream is then replayed into a
// fresh policy engine through SubmitBatchInto in chunks of each size given,
// and its answers are held to the per-step nogc ones (perStep) or to a nogc
// engine fed the same batches. Every step must be decided alike, or the
// cell fails t. It returns the steps, the nogc engine's rejections and the
// policy engine's deletions.
func theorem2Cell(t testing.TB, name string, shards int, wcfg workload.Config, perStep bool, chunks ...int) (steps, rejected, deleted int64) {
	t.Helper()
	policy, ok := core.PolicyByName(name)
	if !ok {
		t.Fatalf("no policy %q", name)
	}
	cell := fmt.Sprintf("%s, %d shards, seed %d, cross %.2f over %d, hot %.2f, straggler %d",
		name, shards, wcfg.Seed, wcfg.CrossFrac, wcfg.CrossShards, wcfg.HotFrac, wcfg.Straggler)
	policy = exact(t, cell, policy)
	stream, want, rejected, deleted := theorem2Lockstep(t, cell, policy, shards, wcfg)
	for _, chunk := range chunks {
		got := submitChunks(shards, policy, stream, chunk)
		if !perStep {
			want = submitChunks(shards, nil, stream, chunk)
		}
		for i, a := range want {
			if b := got[i]; !sameDecision(a, b) {
				t.Fatalf("%s, batches of %d, step %d %v: nogc %v (aborted %v, completed %v), batched %v (aborted %v, completed %v)",
					cell, chunk, i, stream[i], a.Outcome(), a.Aborted, a.CompletedTxn, b.Outcome(), b.Aborted, b.CompletedTxn)
			}
		}
	}
	return int64(len(stream)), rejected, deleted
}

// exact wraps every policy the constructor builds in the sweep exactness
// check: at the start of each sweep, after its visit handed the scheduler
// the registry's retirements, every retained transaction the sweep will
// skip must still be refused by the test that filed it
// (core.Scheduler.CheckSkipped), so the indexed sweep deletes what a rescan
// of every retained transaction would. A failure fails t and names the
// cell.
func exact(t testing.TB, cell string, policy func() core.Policy) func() core.Policy {
	return func() core.Policy { return exactPolicy{t: t, cell: cell, Policy: policy()} }
}

// exactPolicy is a policy under the sweep exactness check (exact).
type exactPolicy struct {
	core.Policy
	t    testing.TB
	cell string
}

func (p exactPolicy) Sweep(sw *core.Sweep) {
	if err := sw.Scheduler().CheckSkipped(); err != nil {
		p.t.Errorf("%s: sweep %d: %v", p.cell, sw.Scheduler().Stats().Sweeps+1, err)
	}
	p.Policy.Sweep(sw)
}

// theorem2Lockstep feeds the stream wcfg generates, step by step, to a nogc
// engine and to one under policy; the generator hears of aborts from the
// nogc side, so both see the same stream, and every step must be decided
// alike, or it fails t. It returns the stream, the nogc engine's answers,
// its rejections and the policy engine's deletions.
func theorem2Lockstep(t testing.TB, cell string, policy func() core.Policy, shards int, wcfg workload.Config) (stream []model.Step, want []Result, rejected, deleted int64) {
	t.Helper()
	ref := New(Config{Shards: shards})
	pol := New(Config{Shards: shards, Policy: policy})
	defer ref.Close()
	defer pol.Close()
	gen := workload.New(wcfg)
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
	return stream, want, ref.Stats().Rejected, pol.Stats().Deleted
}

// submitChunks replays stream into a fresh engine under policy through
// SubmitBatchInto, chunk steps a batch, and returns its answers.
func submitChunks(shards int, policy func() core.Policy, stream []model.Step, chunk int) []Result {
	eng := New(Config{Shards: shards, Policy: policy})
	defer eng.Close()
	var got []Result
	for i := 0; i < len(stream); i += chunk {
		got = eng.SubmitBatchInto(got, stream[i:min(i+chunk, len(stream))])
	}
	return got
}
