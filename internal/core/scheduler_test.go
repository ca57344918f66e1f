package core

import (
	"testing"

	"repro/internal/model"
)

func apply(t *testing.T, s *Scheduler, st model.Step) Result {
	t.Helper()
	res, err := s.Apply(st)
	if err != nil {
		t.Fatalf("Apply(%v): %v", st, err)
	}
	return res
}

func TestRule1BeginAddsIsolatedNode(t *testing.T) {
	s := NewScheduler(Config{})
	res := apply(t, s, model.Begin(1))
	if !res.Accepted {
		t.Fatal("BEGIN must be accepted")
	}
	if !s.Graph().HasNode(1) || s.Graph().NumArcs() != 0 {
		t.Fatal("BEGIN must add an isolated node")
	}
	if s.Status(1) != model.StatusActive {
		t.Fatalf("status = %v", s.Status(1))
	}
}

func TestRule2ArcFromWriterToReader(t *testing.T) {
	s := NewScheduler(Config{})
	apply(t, s, model.Begin(1))
	apply(t, s, model.WriteFinal(1, 5)) // T1 writes entity 5, completes
	apply(t, s, model.Begin(2))
	apply(t, s, model.Read(2, 5))
	if !s.Graph().HasArc(1, 2) {
		t.Fatal("Rule 2: writer -> reader arc missing")
	}
	if s.Graph().HasArc(2, 1) {
		t.Fatal("arc direction wrong")
	}
}

func TestRule2NoArcFromReaderToReader(t *testing.T) {
	s := NewScheduler(Config{})
	apply(t, s, model.Begin(1))
	apply(t, s, model.Read(1, 5))
	apply(t, s, model.Begin(2))
	apply(t, s, model.Read(2, 5))
	if s.Graph().NumArcs() != 0 {
		t.Fatal("two reads do not conflict")
	}
}

func TestRule3ArcsFromReadersAndWritersIntoWriter(t *testing.T) {
	s := NewScheduler(Config{})
	apply(t, s, model.Begin(1))
	apply(t, s, model.Read(1, 5)) // reader of 5
	apply(t, s, model.Begin(2))
	apply(t, s, model.WriteFinal(2, 5)) // writer of 5
	apply(t, s, model.Begin(3))
	res := apply(t, s, model.WriteFinal(3, 5))
	if !res.Accepted {
		t.Fatal("write should be accepted")
	}
	if !s.Graph().HasArc(1, 3) {
		t.Fatal("Rule 3: reader -> writer arc missing")
	}
	if !s.Graph().HasArc(2, 3) {
		t.Fatal("Rule 3: writer -> writer arc missing")
	}
}

func TestNoSelfArcs(t *testing.T) {
	s := NewScheduler(Config{})
	apply(t, s, model.Begin(1))
	apply(t, s, model.Read(1, 5))
	res := apply(t, s, model.WriteFinal(1, 5)) // writes what it read
	if !res.Accepted {
		t.Fatal("read-modify-write of one's own entity must be accepted")
	}
	if s.Graph().NumArcs() != 0 {
		t.Fatal("self-conflicts must not create arcs")
	}
	if s.Status(1) != model.StatusCompleted {
		t.Fatalf("status = %v", s.Status(1))
	}
}

func TestCycleRejectedAndTxnAborted(t *testing.T) {
	// T1 reads x. T2 reads y. T1 writes y (arc T2->T1). T2 writes x would
	// add arc T1->T2, closing a cycle: rejected, T2 aborts.
	s := NewScheduler(Config{})
	apply(t, s, model.Begin(1))
	apply(t, s, model.Read(1, 0)) // x
	apply(t, s, model.Begin(2))
	apply(t, s, model.Read(2, 1))              // y
	apply(t, s, model.WriteFinal(1, 1))        // T1 writes y; arc T2->T1
	res := apply(t, s, model.WriteFinal(2, 0)) // T2 writes x; would arc T1->T2
	if res.Accepted {
		t.Fatal("cycle-creating step must be rejected")
	}
	if res.Aborted != 2 {
		t.Fatalf("aborted = T%d, want T2", res.Aborted)
	}
	if s.Graph().HasNode(2) {
		t.Fatal("aborted transaction must leave the graph")
	}
	if s.Txn(2) != nil {
		t.Fatal("aborted transaction record must be dropped")
	}
	st := s.Stats()
	if st.Rejected != 1 || st.Aborts != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestAbortForgetsAccessInformation(t *testing.T) {
	// After T2 aborts, its reads/writes must not generate arcs for later
	// steps.
	s := NewScheduler(Config{})
	apply(t, s, model.Begin(1))
	apply(t, s, model.Read(1, 0))
	apply(t, s, model.Begin(2))
	apply(t, s, model.Read(2, 1))
	apply(t, s, model.Read(2, 7)) // T2 also reads entity 7
	apply(t, s, model.WriteFinal(1, 1))
	res := apply(t, s, model.WriteFinal(2, 0)) // T2 aborts
	if res.Accepted {
		t.Fatal("expected rejection")
	}
	// A new writer of entity 7 must get no arc from the dead T2.
	apply(t, s, model.Begin(3))
	apply(t, s, model.WriteFinal(3, 7))
	if got := s.Graph().PredList(3); len(got) != 0 {
		t.Fatalf("T3 has predecessors %v; aborted T2's reads must be forgotten", got)
	}
}

func TestEmptyWriteSetCompletes(t *testing.T) {
	s := NewScheduler(Config{})
	apply(t, s, model.Begin(1))
	apply(t, s, model.Read(1, 0))
	res := apply(t, s, model.WriteFinal(1)) // read-only commit
	if !res.Accepted || res.CompletedTxn != 1 {
		t.Fatalf("read-only completion failed: %+v", res)
	}
	if s.Status(1) != model.StatusCompleted {
		t.Fatalf("status = %v", s.Status(1))
	}
}

func TestProtocolErrors(t *testing.T) {
	s := NewScheduler(Config{})
	apply(t, s, model.Begin(1))
	if _, err := s.Apply(model.Begin(1)); err == nil {
		t.Fatal("duplicate BEGIN must error")
	}
	if _, err := s.Apply(model.Read(9, 0)); err == nil {
		t.Fatal("read for unknown txn must error")
	}
	apply(t, s, model.WriteFinal(1, 0))
	if _, err := s.Apply(model.Read(1, 0)); err == nil {
		t.Fatal("step after completion must error")
	}
	if _, err := s.Apply(model.Write(1, 0)); err == nil {
		t.Fatal("multiple-write step kind must error in the basic model")
	}
	if _, err := s.Apply(model.Finish(1)); err == nil {
		t.Fatal("finish step kind must error in the basic model")
	}
	// The engine's two-phase-commit decisions are not scheduler steps.
	apply(t, s, model.Begin(2))
	for _, k := range []model.StepKind{model.KindCommit, model.KindAbort} {
		if _, err := s.Apply(model.Step{Kind: k, Txn: 2}); err == nil {
			t.Fatalf("%v step kind must error in the basic model", k)
		}
	}
	if st := s.Txn(2).Status; st != model.StatusActive {
		t.Fatalf("T2 is %v after the refused decisions, want active", st)
	}
}

func TestMustApplyPanicsOnProtocolError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := NewScheduler(Config{})
	s.MustApply(model.Read(1, 0))
}

func TestAcceptedSchedulesStayAcyclic(t *testing.T) {
	s := Example1Scheduler(Config{})
	if !s.Graph().Acyclic() {
		t.Fatal("conflict graph must remain acyclic")
	}
}

func TestActiveAndCompletedListings(t *testing.T) {
	s := Example1Scheduler(Config{})
	if got := s.ActiveTxns(); len(got) != 1 || got[0] != Ex1T1 {
		t.Fatalf("ActiveTxns = %v", got)
	}
	if got := s.CompletedTxns(); len(got) != 2 || got[0] != Ex1T2 || got[1] != Ex1T3 {
		t.Fatalf("CompletedTxns = %v", got)
	}
	if s.NumActive() != 1 || s.NumCompleted() != 2 {
		t.Fatalf("counts: %d active, %d completed", s.NumActive(), s.NumCompleted())
	}
}

func TestStatsTracking(t *testing.T) {
	s := Example1Scheduler(Config{})
	st := s.Stats()
	if st.Begins != 3 || st.Reads != 3 || st.Writes != 2 || st.Completed != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if st.PeakNodes != 3 {
		t.Fatalf("PeakNodes = %d, want 3", st.PeakNodes)
	}
	if st.Accepted != 8 {
		t.Fatalf("Accepted = %d, want 8", st.Accepted)
	}
	if st.AvgKept() <= 0 {
		t.Fatal("AvgKept should be positive after completions")
	}
}

func TestOnDeleteCallback(t *testing.T) {
	var deleted []model.TxnID
	s := NewScheduler(Config{
		Policy:   GreedyC1{},
		OnDelete: func(id model.TxnID) { deleted = append(deleted, id) },
	})
	for _, st := range Example1Steps() {
		apply(t, s, st)
	}
	if len(deleted) == 0 {
		t.Fatal("OnDelete never fired")
	}
}

func TestDeleteIfSafe(t *testing.T) {
	s := Example1Scheduler(Config{})
	if !s.DeleteIfSafe(Ex1T2) {
		t.Fatal("T2 satisfies C1 and should delete")
	}
	if s.DeleteIfSafe(Ex1T3) {
		t.Fatal("after deleting T2, T3 must not be deletable")
	}
	if s.DeleteIfSafe(Ex1T1) {
		t.Fatal("active transactions must never delete")
	}
}
