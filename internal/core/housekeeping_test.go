package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/workload"
)

// The reference side of the housekeeping differential: the sweep paths as
// they were before the completed index and the slot-level C1 test — scan
// txns and sort, materialize the ancestor closure, run the generic
// conditions.go checker — kept here so the fast paths always have something
// to be held against.

// refCompleted is Sweep.Completed by map scan: every retained completed
// transaction a policy may consider, ascending.
func refCompleted(sw *Sweep) []model.TxnID {
	var ids []model.TxnID
	for id, t := range sw.s.txns {
		if t.Status == model.StatusCompleted && sw.s.policyDeletable(id) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// refHasActivePredecessor is Lemma 1's test over the materialized closure.
func refHasActivePredecessor(s *Scheduler, id model.TxnID) bool {
	for a := range s.g.Ancestors(id) {
		if s.Status(a) == model.StatusActive {
			return true
		}
	}
	return false
}

type refLemma1 struct{}

func (refLemma1) Name() string { return "ref-lemma1" }
func (refLemma1) Sweep(sw *Sweep) {
	for progress := true; progress; {
		progress = false
		for _, id := range refCompleted(sw) {
			if !refHasActivePredecessor(sw.s, id) && sw.Delete(id) {
				progress = true
			}
		}
	}
}

type refGreedyC1 struct{ newestFirst bool }

func (refGreedyC1) Name() string { return "ref-greedy-c1" }
func (p refGreedyC1) Sweep(sw *Sweep) {
	for progress := true; progress; {
		progress = false
		ids := refCompleted(sw)
		if p.newestFirst {
			slices.Reverse(ids)
		}
		for _, id := range ids {
			if ok, _ := CheckC1(sw.s, sw.s.g, id); ok && sw.Delete(id) {
				progress = true
			}
		}
	}
}

type refNoncurrentSafe struct{}

func (refNoncurrentSafe) Name() string { return "ref-noncurrent-safe" }
func (refNoncurrentSafe) Sweep(sw *Sweep) {
	for {
		batch := make(graph.NodeSet)
		for _, id := range refCompleted(sw) {
			if sw.s.Noncurrent(id) && sw.s.CurrentWriterPresent(id) {
				batch.Add(id)
			}
		}
		if len(batch) == 0 || sw.DeleteSet(batch) == 0 {
			return
		}
	}
}

// audited runs inner, and on the graph as it stands before and after holds
// every fast path against its reference: the candidate list, the C1 verdict
// of every retained completed transaction, and the active-ancestor search.
type audited struct {
	t     *testing.T
	inner Policy
}

func (a audited) Name() string { return a.inner.Name() }
func (a audited) Sweep(sw *Sweep) {
	a.audit(sw)
	before := len(sw.deleted)
	a.inner.Sweep(sw)
	if len(sw.deleted) != before {
		a.audit(sw)
	}
}

func (a audited) audit(sw *Sweep) {
	a.t.Helper()
	s := sw.s
	if got, want := sw.Completed(), refCompleted(sw); !slices.Equal(got, want) {
		a.t.Fatalf("Sweep.Completed = %v, map scan says %v", got, want)
	}
	var scan []model.TxnID
	for id, t := range s.txns {
		if t.Status == model.StatusCompleted {
			scan = append(scan, id)
		}
	}
	slices.Sort(scan)
	if !slices.Equal(s.completed, scan) {
		a.t.Fatalf("completed index = %v, map scan says %v", s.completed, scan)
	}
	for _, id := range scan {
		got, viol := s.CheckC1(id)
		want, _ := CheckC1(s, s.g, id)
		if got != want {
			a.t.Fatalf("Scheduler.CheckC1(T%d) = %v, generic CheckC1 = %v\n%v", id, got, want, s.g)
		}
		if !got {
			// The witness must be a genuine one: an active tight predecessor
			// with no completed tight successor covering X.
			tight := ActiveTightPredecessors(s, s.g, id)
			if !slices.Contains(tight, viol.Tj) {
				a.t.Fatalf("CheckC1(T%d) blames T%d, not an active tight predecessor %v", id, viol.Tj, tight)
			}
			for tk := range CompletedTightSuccessors(s, s.g, viol.Tj) {
				if tk != id && s.Access(tk).Get(viol.X).AtLeastAsStrong(viol.Strength) {
					a.t.Fatalf("CheckC1(T%d) witness (T%d, x%d) is covered by T%d", id, viol.Tj, viol.X, tk)
				}
			}
		}
		slot, seq, found := s.ActiveAncestor(id)
		if found != refHasActivePredecessor(s, id) {
			a.t.Fatalf("ActiveAncestor(T%d) found=%v, closure scan disagrees", id, found)
		}
		if found != HasActivePredecessor(s, s.g, id) {
			a.t.Fatalf("HasActivePredecessor(T%d) disagrees with ActiveAncestor=%v", id, found)
		}
		if found {
			anc := s.g.IDOf(slot)
			if !s.g.Ancestors(id).Has(anc) || !s.ActiveAt(slot, seq) || s.txns[anc].BeginSeq != seq {
				a.t.Fatalf("ActiveAncestor(T%d) = slot %d (T%d, seq %d): not an active ancestor", id, slot, anc, seq)
			}
		}
	}
}

// scriptedTracker is a CrossTracker whose retirements the test drives.
type scriptedTracker struct{ retired map[model.TxnID]bool }

func (scriptedTracker) OnCrossReach(src, dst model.TxnID) bool { return true }
func (tr scriptedTracker) LabelLive(id model.TxnID) bool       { return !tr.retired[id] }

// TestHousekeepingDifferential runs two schedulers in lockstep over seeded
// straggler workloads — one on the shipped policy, one on its reference —
// with random aborts, cross sub-transactions committed through
// PrepareFinal/CommitPrepared, and tracker retirements mixed in. Every step
// must be decided alike and every sweep must delete the same set; the
// shipped side is audited at every sweep.
func TestHousekeepingDifferential(t *testing.T) {
	cases := []struct{ fast, ref Policy }{
		{Lemma1Policy{}, refLemma1{}},
		{GreedyC1{}, refGreedyC1{}},
		{GreedyC1{NewestFirst: true}, refGreedyC1{newestFirst: true}},
		{NoncurrentSafe{}, refNoncurrentSafe{}},
		{Chain{GreedyC1{NewestFirst: true}, NoncurrentSafe{}}, Chain{refGreedyC1{newestFirst: true}, refNoncurrentSafe{}}},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.fast.Name(), seed), func(t *testing.T) {
				lockstep(t, tc.fast, tc.ref, seed)
			})
		}
	}
}

func lockstep(t *testing.T, fast, ref Policy, seed int64) {
	tracker := scriptedTracker{retired: map[model.TxnID]bool{}}
	a := NewScheduler(Config{Policy: audited{t, fast}, Cross: tracker})
	b := NewScheduler(Config{Policy: ref, Cross: tracker})
	gen := workload.New(workload.Config{
		Entities: 24, Txns: 110, MaxActive: 6, ReadsMin: 1, ReadsMax: 3,
		WritesMin: 0, WritesMax: 2, HotFrac: 0.25, Straggler: 12,
		RestartAborted: true, Seed: seed,
	})
	rng := newRand(seed)
	cross := map[model.TxnID]bool{}
	var decided []model.TxnID // committed cross transactions the tracker still tracks
	steps, sweeps, deletions := 0, 0, 0

	same := func(what string, ra, rb Result, ea, eb error) {
		t.Helper()
		if (ea == nil) != (eb == nil) {
			t.Fatalf("%s: errors diverged: %v vs %v", what, ea, eb)
		}
		da, db := slices.Clone(ra.Deleted), slices.Clone(rb.Deleted)
		slices.Sort(da)
		slices.Sort(db)
		if ra.Accepted != rb.Accepted || ra.Aborted != rb.Aborted || !slices.Equal(da, db) {
			t.Fatalf("%s: fast %+v, reference %+v", what, ra, rb)
		}
		deletions += len(da)
	}
	abort := func(id model.TxnID) {
		ea, eb := a.AbortTxn(id), b.AbortTxn(id)
		same(fmt.Sprintf("abort T%d", id), Result{}, Result{}, ea, eb)
		if ea == nil {
			gen.NotifyAbort(id)
		}
	}

	for {
		step, ok := gen.Next()
		if !ok {
			break
		}
		var ra, rb Result
		var ea, eb error
		switch {
		case step.Kind == model.KindBegin && rng.Intn(5) == 0:
			cross[step.Txn] = true
			ra, ea = a.BeginCross(step)
			rb, eb = b.BeginCross(step)
		case step.Kind == model.KindWriteFinal && cross[step.Txn]:
			va, ea1 := a.PrepareFinal(step)
			vb, eb1 := b.PrepareFinal(step)
			if va != vb || (ea1 == nil) != (eb1 == nil) {
				t.Fatalf("%v: votes diverged: %v/%v vs %v/%v", step, va, ea1, vb, eb1)
			}
			if ea1 != nil || va != VoteYes || rng.Intn(4) == 0 {
				abort(step.Txn) // NO vote, or the coordinator decided ABORT
				continue
			}
			ra, ea = a.CommitPrepared(step.Txn)
			rb, eb = b.CommitPrepared(step.Txn)
			decided = append(decided, step.Txn)
		default:
			ra, ea = a.Apply(step)
			rb, eb = b.Apply(step)
		}
		same(step.String(), ra, rb, ea, eb)
		if ea == nil && !ra.Accepted {
			gen.NotifyAbort(step.Txn)
		}
		if sa := a.Stats().Sweeps; int(sa) != sweeps {
			sweeps = int(sa)
			if sb := b.Stats().Sweeps; sb != sa {
				t.Fatalf("sweep counts diverged: %d vs %d", sa, sb)
			}
		}
		// The environment: now and then a client gives up on an active
		// transaction, and the tracker retires a decided cross transaction
		// (its labels die, its node becomes deletable at the next sweep).
		if rng.Intn(40) == 0 {
			if act := a.ActiveTxns(); len(act) > 0 {
				if id := act[rng.Intn(len(act))]; !a.Prepared(id) {
					abort(id)
				}
			}
		}
		if len(decided) > 0 && rng.Intn(6) == 0 {
			tracker.retired[decided[0]] = true
			decided = decided[1:]
		}
		if steps++; steps%16 == 0 {
			checkInvariants(t, a)
		}
	}
	checkInvariants(t, a)
	if sweeps == 0 || deletions == 0 {
		t.Fatalf("workload too tame: %d sweeps, %d deletions", sweeps, deletions)
	}
	if !slices.Equal(a.CompletedTxns(), b.CompletedTxns()) || !a.g.Equal(b.g) {
		t.Fatalf("final states diverged:\n%v\n%v", a.g, b.g)
	}
}

// recordStragglerStream runs a straggler-pinned workload once under nogc and
// returns the steps the scheduler was shown, in order. By Theorem 2 every
// correct deletion policy decides them alike, so the stream replays on any
// of them without the generator in the loop.
func recordStragglerStream(txns int) []model.Step {
	gen := workload.New(workload.Config{
		Entities: 1024, Txns: txns, MaxActive: 8, ReadsMin: 3, ReadsMax: 3,
		WritesMin: 1, WritesMax: 1, HotFrac: 0.05, HotProb: 0.8,
		Straggler: 32, RestartAborted: true, Seed: 18,
	})
	s := NewScheduler(Config{})
	var stream []model.Step
	for {
		step, ok := gen.Next()
		if !ok {
			return stream
		}
		stream = append(stream, step)
		if res := s.MustApply(step); !res.Accepted {
			gen.NotifyAbort(step.Txn)
		}
	}
}

// BenchmarkSweepStragglerPinned is the between-batch sweep as an engine
// shard once ran it — GreedyC1 by SweepNow after every eighth completion or
// abort, a fixed cadence kept here so the gated figure stays comparable —
// over a stream whose long reader keeps a few hundred completed
// transactions pinned, so every sweep walks a long candidate list and
// deletes little of it. allocs/txn is gated by bench_budget.txt
// (max_core_sweep_allocs_per_txn); sweep-us is the mean sweep.
func BenchmarkSweepStragglerPinned(b *testing.B) {
	const txns = 4000
	stream := recordStragglerStream(txns)
	var ms runtime.MemStats
	var mallocs uint64
	var sweepNS, sweeps int64
	peak := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewScheduler(Config{Policy: GreedyC1{}, SweepManual: true})
		runtime.ReadMemStats(&ms)
		m0, since := ms.Mallocs, 0
		for _, step := range stream {
			res := s.MustApply(step)
			if res.CompletedTxn != model.NoTxn || res.Aborted != model.NoTxn {
				since++
			}
			if since >= 8 {
				since = 0
				peak = max(peak, s.NumCompleted())
				t0 := time.Now()
				s.SweepNow()
				sweepNS += time.Since(t0).Nanoseconds()
				sweeps++
			}
		}
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - m0
	}
	b.ReportMetric(float64(mallocs)/float64(b.N*txns), "allocs/txn")
	b.ReportMetric(float64(sweepNS)/1e3/float64(sweeps), "sweep-us")
	b.ReportMetric(float64(peak), "peak-kept")
}
