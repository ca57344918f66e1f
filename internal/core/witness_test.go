package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// countedTracker is a scriptable CrossTracker that counts its retirements,
// as the engine's registry does, and how often LabelLive was asked.
type countedTracker struct {
	retired map[model.TxnID]bool
	asked   int
}

func (c *countedTracker) OnCrossReach(src, dst model.TxnID) bool { return true }
func (c *countedTracker) LabelLive(id model.TxnID) bool {
	c.asked++
	return !c.retired[id]
}
func (c *countedTracker) Retirements() uint64 { return uint64(len(c.retired)) }

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

// TestLabelLiveAskedAfterRetirementsOnly: twenty completed transactions
// carry the label of one tracked cross sub-transaction. A tracker that
// counts its retirements is asked about that source once, and not again
// while the count stands — neither by the sweeps nor by the steps — and the
// sweep after a retirement asks once more and deletes what C1 lets go.
func TestLabelLiveAskedAfterRetirementsOnly(t *testing.T) {
	tr := &countedTracker{retired: map[model.TxnID]bool{}}
	s := NewScheduler(Config{Policy: GreedyC1{}, SweepManual: true, Cross: tr})
	if _, err := s.BeginCross(model.Begin(1)); err != nil {
		t.Fatal(err)
	}
	s.MustApply(model.Read(1, 0))
	for id := model.TxnID(2); id <= 21; id++ {
		s.MustApply(model.Begin(id))
		if res := s.MustApply(model.WriteFinal(id, 0)); !res.Accepted {
			t.Fatalf("T%d's write rejected", id)
		}
	}
	if tr.asked != 1 {
		t.Fatalf("twenty writes asked LabelLive %d times, want once for the one label source", tr.asked)
	}
	for i := 0; i < 3; i++ {
		if del := s.SweepNow(); len(del) != 0 {
			t.Fatalf("sweep %d deleted %v, all carry a live label", i, del)
		}
	}
	if tr.asked != 1 {
		t.Fatalf("three sweeps without a retirement asked LabelLive %d times in all, want the first time only", tr.asked)
	}
	for id := model.TxnID(2); id <= 21; id++ {
		if w := s.Txn(id).on; w != s.Txn(1) {
			t.Fatalf("T%d is filed on %v, want on its label's source T1", id, w)
		}
	}
	tr.retired[1] = true
	// C1 keeps the last writer of the entity the still-active T1 read.
	if del := s.SweepNow(); len(del) != 19 {
		t.Fatalf("the sweep after the source retired deleted %v, want all but the last writer", del)
	}
	if tr.asked != 2 {
		t.Fatalf("LabelLive asked %d times, want once more after the retirement", tr.asked)
	}
}

// TestIndexedSweepExact holds the indexed sweeps, which examine only new
// completions and released refusals, to rescans of every retained
// transaction. Two schedulers take the same straggler streams with cross
// sub-transactions, random aborts and retirements by a counting tracker:
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
	tr := &countedTracker{retired: map[model.TxnID]bool{}}
	a := NewScheduler(Config{Policy: checked{fast, t}, Cross: tr})
	b := NewScheduler(Config{Policy: ref, Cross: tr})
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
			va, _ := a.PrepareFinal(step)
			if vb, _ := b.PrepareFinal(step); va != vb {
				t.Fatalf("%v: votes %v vs %v", step, va, vb)
			}
			if va != VoteYes || rng.Intn(4) == 0 {
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
			tr.retired[decided[0]] = true
			decided = decided[1:]
		}
	}
	if deletions == 0 {
		t.Fatal("workload too tame: nothing deleted")
	}
}
