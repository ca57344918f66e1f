package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// checked runs its policy under the sweep exactness check: at the start of
// each sweep every transaction the sweep will skip must still be refused by
// the test that filed it.
type checked struct {
	Policy
	t *testing.T
}

func (c checked) Sweep(sw *Sweep) {
	c.t.Helper()
	if err := sw.Scheduler().CheckSkipped(); err != nil {
		c.t.Fatalf("sweep %d: %v", sw.Scheduler().Stats().Sweeps+1, err)
	}
	c.Policy.Sweep(sw)
}

// TestRetireReleasesOnlyItsSource: committed cross T1 and T2 each gate
// their own sub-node and the local transactions that read what they wrote.
// Retiring T1 hands the next sweep exactly T1's list — Stats.Examined grows
// by its length, and all of it goes — while T2's list stays filed on T2.
func TestRetireReleasesOnlyItsSource(t *testing.T) {
	s := NewScheduler(Config{Policy: checked{GreedyC1{}, t}, SweepManual: true, Cross: scriptedTracker{}})
	for _, src := range []model.TxnID{1, 2} {
		s.MustBeginCross(t, src)
		if vote, _ := s.Apply(model.WriteFinal(src, model.Entity(src))); !vote.Accepted {
			t.Fatalf("T%d voted %v", src, vote)
		}
		if _, err := s.CommitPrepared(src); err != nil {
			t.Fatal(err)
		}
	}
	// T3–T5 read T1's e1, T6 and T7 read T2's e2.
	readers := map[model.TxnID][]model.TxnID{1: {3, 4, 5}, 2: {6, 7}}
	for src, ids := range readers {
		for _, id := range ids {
			s.MustApply(model.Begin(id))
			s.MustApply(model.Read(id, model.Entity(src)))
			s.MustApply(model.WriteFinal(id, model.Entity(10+id)))
		}
	}
	if del := s.SweepNow(); len(del) != 0 {
		t.Fatalf("sweep deleted %v while both labels are live", del)
	}
	for src, ids := range readers {
		for _, id := range append(ids, src) {
			if w := s.Txn(id).on; w != s.Txn(src) {
				t.Fatalf("T%d is filed on %v, want on its label's source T%d", id, w, src)
			}
		}
	}
	examined := s.Stats().Examined
	s.Retire(1)
	del := s.SweepNow()
	slices.Sort(del)
	if !slices.Equal(del, []model.TxnID{1, 3, 4, 5}) {
		t.Fatalf("the sweep after T1 retired deleted %v, want T1 and its readers", del)
	}
	if n := s.Stats().Examined - examined; n != 4 {
		t.Fatalf("the sweep after T1 retired examined %d transactions, want T1's list of 4", n)
	}
	for _, id := range []model.TxnID{2, 6, 7} {
		if w := s.Txn(id).on; w != s.Txn(2) {
			t.Fatalf("T%d is filed on %v after T1 retired, want on T2", id, w)
		}
	}
	if err := s.CheckSkipped(); err != nil {
		t.Fatal(err)
	}
}

// TestIndexedSweepExact holds the indexed sweeps, which examine only new
// completions and released refusals, to rescans of every retained
// transaction. Two schedulers take the same straggler streams with cross
// sub-transactions, random aborts and retirements:
// one under GreedyC1 (oldest and newest first) or Lemma1Policy, checked for
// exactness at every sweep, one under the reference policy that rescans to
// a fixpoint. Every step must delete the same set.
func TestIndexedSweepExact(t *testing.T) {
	cases := []struct{ fast, ref Policy }{
		{Lemma1Policy{}, refLemma1{}},
		{GreedyC1{}, refGreedyC1{}},
		{GreedyC1{NewestFirst: true}, refGreedyC1{newestFirst: true}},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.fast.Name(), seed), func(t *testing.T) {
				indexedLockstep(t, tc.fast, tc.ref, seed)
			})
		}
	}
}

func indexedLockstep(t *testing.T, fast, ref Policy, seed int64) {
	a := NewScheduler(Config{Policy: checked{fast, t}, Cross: scriptedTracker{}})
	b := NewScheduler(Config{Policy: ref, Cross: scriptedTracker{}})
	gen := workload.New(workload.Config{
		Entities: 24, Txns: 300, MaxActive: 6, ReadsMin: 1, ReadsMax: 3,
		WritesMin: 0, WritesMax: 2, HotFrac: 0.25, Straggler: 12,
		RestartAborted: true, Seed: seed,
	})
	rng := newRand(seed + 7)
	cross := map[model.TxnID]bool{}
	var decided []model.TxnID
	deletions := 0
	same := func(what string, ra, rb Result, ea, eb error) {
		t.Helper()
		da, db := slices.Clone(ra.Deleted), slices.Clone(rb.Deleted)
		slices.Sort(da)
		slices.Sort(db)
		if (ea == nil) != (eb == nil) || ra.Accepted != rb.Accepted || !slices.Equal(da, db) {
			t.Fatalf("%s: indexed %+v (%v), rescan %+v (%v)", what, ra, ea, rb, eb)
		}
		deletions += len(da)
	}
	abort := func(id model.TxnID) {
		if ea, eb := a.AbortTxn(id), b.AbortTxn(id); (ea == nil) != (eb == nil) {
			t.Fatalf("abort T%d: %v vs %v", id, ea, eb)
		} else if ea == nil {
			gen.NotifyAbort(id)
		}
		if !slices.Equal(a.CompletedTxns(), b.CompletedTxns()) {
			t.Fatalf("abort T%d: retained %v, rescan %v", id, a.CompletedTxns(), b.CompletedTxns())
		}
	}
	for step, ok := gen.Next(); ok; step, ok = gen.Next() {
		var ra, rb Result
		var ea, eb error
		switch {
		case step.Kind == model.KindBegin && rng.Intn(4) == 0:
			cross[step.Txn] = true
			ra, ea = a.BeginCross(step)
			rb, eb = b.BeginCross(step)
		case step.Kind == model.KindWriteFinal && cross[step.Txn]:
			ra, ea = a.Apply(step)
			rb, eb = b.Apply(step)
			same(step.String()+" vote", ra, rb, ea, eb)
			if !ra.Accepted {
				gen.NotifyAbort(step.Txn)
				continue
			}
			if rng.Intn(4) == 0 {
				abort(step.Txn)
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
		if rng.Intn(40) == 0 {
			if act := a.ActiveTxns(); len(act) > 0 {
				if id := act[rng.Intn(len(act))]; !a.Prepared(id) {
					abort(id)
				}
			}
		}
		if len(decided) > 0 && rng.Intn(6) == 0 {
			a.Retire(decided[0])
			b.Retire(decided[0])
			decided = decided[1:]
		}
	}
	if deletions == 0 {
		t.Fatal("workload too tame: nothing deleted")
	}
}

// TestCleanReportWaitsForTheLastAncestor: committed cross sub-node X has two
// active ancestors, A1 directly and A2 through completed local C. X is
// handed over clean (TakeClean) in the very step that ends the second of
// them — by completion, rejection or abort — and never before; until then
// it is filed on one of them, searched once at its commit and once per
// ending witness. Under nogc nothing of this reaches the pending index, and
// CheckSkipped re-runs the owed refusal outside the held count. Retiring X
// while it is owed, or after it was found clean but before the hand-over,
// drops its report.
func TestCleanReportWaitsForTheLastAncestor(t *testing.T) {
	for _, policy := range []string{"nogc", "greedy-c1"} {
		for _, ending := range []string{"complete", "reject", "abort"} {
			for _, retire := range []string{"", "owed", "clean"} {
				name := fmt.Sprintf("%s/%s/retire=%s", policy, ending, retire)
				t.Run(name, func(t *testing.T) { cleanReportLockstep(t, policy == "nogc", ending, retire) })
			}
		}
	}
}

func cleanReportLockstep(t *testing.T, nogc bool, ending, retire string) {
	const a1, a2, c, x = 1, 2, 3, 10
	cfg := Config{Cross: scriptedTracker{}}
	if !nogc {
		cfg.Policy = checked{GreedyC1{}, t}
	}
	s := NewScheduler(cfg)
	s.MustApply(model.Begin(a1))
	s.MustApply(model.Read(a1, 1))
	s.MustApply(model.Begin(a2))
	s.MustApply(model.Read(a2, 4))
	s.MustApply(model.Begin(c))
	s.MustApply(model.WriteFinal(c, 4, 5)) // A2 → C
	s.MustBeginCross(t, x)
	if vote, err := s.Apply(model.WriteFinal(x, 1, 5, 3)); !vote.Accepted || err != nil {
		t.Fatalf("X voted %v (%v)", vote, err)
	}
	if _, err := s.CommitPrepared(x); err != nil { // A1 → X, C → X
		t.Fatal(err)
	}
	xs := s.Txn(x)
	searched := int64(1)
	// check holds the state after every step: X handed over iff want, the
	// search count, nogc's empty pending index, and CheckSkipped.
	check := func(what string, want bool) {
		t.Helper()
		if got := s.TakeClean(nil); want != (len(got) == 1 && got[0] == x) || len(got) > 1 {
			t.Fatalf("%s: handed over %v, want X: %v", what, got, want)
		}
		if n := s.Stats().Searched; n != searched {
			t.Fatalf("%s: %d ancestor searches, want %d", what, n, searched)
		}
		if nogc && len(s.pending) != 0 {
			t.Fatalf("%s: pending %v under nogc", what, s.pending)
		}
		if err := s.CheckSkipped(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	owedOn := func(what string, w model.TxnID) {
		t.Helper()
		if xs.on != s.Txn(w) || xs.why != owedByAncestor {
			t.Fatalf("%s: X is filed on %v for %d, want owed on T%d", what, xs.on, xs.why, w)
		}
	}
	check("commit", false)
	first := xs.on.ID
	if first != a1 && first != a2 {
		t.Fatalf("X is filed on T%d, not on an active ancestor", first)
	}
	last := model.TxnID(a1 + a2 - first)
	owedOn("commit", first)
	// CheckSkipped re-runs the refusal: untracked, X would be deletable, and
	// the owed list is no held list.
	if nogc && s.blocked != 0 {
		t.Fatalf("owed sub-node counted on held lists: blocked = %d", s.blocked)
	}
	xs.tracked = false
	if err := s.CheckSkipped(); err == nil {
		t.Fatal("CheckSkipped accepts an owed sub-node the tracker no longer tracks")
	}
	xs.tracked = true
	if retire == "owed" {
		s.Retire(x)
		if xs.on != nil && xs.why == owedByAncestor {
			t.Fatal("Retire left X owed")
		}
		check("retire", false)
	}
	end := func(w model.TxnID) {
		t.Helper()
		switch ending {
		case "complete":
			s.MustApply(model.WriteFinal(w, model.Entity(20+w)))
		case "reject":
			if res := s.MustApply(model.Read(w, 3)); res.Accepted { // X → w closes a cycle
				t.Fatalf("T%d's read of X's write was accepted", w)
			}
		case "abort":
			if err := s.AbortTxn(w); err != nil {
				t.Fatal(err)
			}
		}
	}
	end(first)
	if retire != "owed" {
		searched++
		owedOn("the first ancestor's end", last)
	}
	check("the first ancestor's end", false)
	end(last)
	if retire == "owed" {
		check("the last ancestor's end", false)
		return
	}
	searched++
	if xs.on != xs || xs.why != refusedByGate {
		t.Fatalf("X is filed on %v for %d after its last ancestor ended, want on its own gated list", xs.on, xs.why)
	}
	if retire == "clean" {
		s.Retire(x)
		check("retire", false)
		return
	}
	check("the last ancestor's end", true)
}
