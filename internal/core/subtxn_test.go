package core

import (
	"slices"
	"testing"

	"repro/internal/model"
)

type reachArc struct{ src, dst model.TxnID }

// fakeTracker is a scriptable CrossTracker: it records reported reach-arcs
// and vetoes the ones listed in veto. The tests retire transactions through
// Scheduler.Retire.
type fakeTracker struct {
	arcs []reachArc
	veto map[reachArc]bool
}

func (f *fakeTracker) OnCrossReach(src, dst model.TxnID) bool {
	if f.veto[reachArc{src, dst}] {
		return false
	}
	f.arcs = append(f.arcs, reachArc{src, dst})
	return true
}

// TestSubTxnLifecycle drives one sub-transaction through begin, reads,
// prepare, and commit, checking status and prepared-count transitions.
func TestSubTxnLifecycle(t *testing.T) {
	tr := &fakeTracker{veto: map[reachArc]bool{}}
	s := NewScheduler(Config{Cross: tr})
	if _, err := s.BeginCross(model.Begin(1)); err != nil {
		t.Fatal(err)
	}
	if res := s.MustApply(model.Read(1, 10)); !res.Accepted {
		t.Fatal("sub-txn read rejected")
	}
	vote, err := s.Apply(model.WriteFinal(1, 11))
	if err != nil || !vote.Accepted {
		t.Fatalf("prepare: vote=%v err=%v", vote, err)
	}
	if !s.Prepared(1) {
		t.Fatal("Prepared(1) = false after a YES vote")
	}
	ts := s.Txn(1)
	if ts.Status != model.StatusActive || s.NumPrepared() != 1 {
		t.Fatalf("prepared sub-txn: status=%v prepared=%d, want active+prepared", ts.Status, s.NumPrepared())
	}
	// No further steps while prepared.
	if _, err := s.Apply(model.Read(1, 12)); err == nil {
		t.Fatal("read of prepared transaction succeeded")
	}
	res, err := s.CommitPrepared(1)
	if err != nil || res.CompletedTxn != 1 {
		t.Fatalf("commit: %+v err=%v", res, err)
	}
	if s.NumPrepared() != 0 {
		t.Fatal("prepared count survived commit")
	}
	if st := s.Status(1); st != model.StatusCompleted {
		t.Fatalf("status after commit = %v", st)
	}
	if s.NumActive() != 0 || s.NumCompleted() != 1 {
		t.Fatalf("counts: active=%d completed=%d", s.NumActive(), s.NumCompleted())
	}
}

// TestSubTxnAbortReleasesPin aborts a prepared sub-transaction and checks
// node, prepared count, and indexes are gone (the ID becomes reusable).
func TestSubTxnAbortReleasesPin(t *testing.T) {
	tr := &fakeTracker{veto: map[reachArc]bool{}}
	s := NewScheduler(Config{Cross: tr})
	s.MustBeginCross(t, 1)
	s.MustApply(model.Read(1, 10))
	if vote, err := s.Apply(model.WriteFinal(1, 11)); err != nil || !vote.Accepted {
		t.Fatalf("prepare: %v %v", vote, err)
	}
	if err := s.AbortTxn(1); err != nil {
		t.Fatal(err)
	}
	if s.NumPrepared() != 0 || s.Graph().NumNodes() != 0 {
		t.Fatalf("abort left prepared=%d nodes=%d", s.NumPrepared(), s.Graph().NumNodes())
	}
	// ID reusable.
	if _, err := s.BeginCross(model.Begin(1)); err != nil {
		t.Fatalf("reuse after abort: %v", err)
	}
}

// MustBeginCross is a test helper.
func (s *Scheduler) MustBeginCross(t *testing.T, id model.TxnID) {
	t.Helper()
	if _, err := s.BeginCross(model.Begin(id)); err != nil {
		t.Fatal(err)
	}
}

// TestLabelPropagation checks the reaches-invariant end to end: a label
// flows from a cross sub-node through a chain of local transactions into a
// second cross sub-node, reporting the inter-shard reach-arc exactly once —
// including when the connecting arc arrives *after* the label (late
// propagation through an existing path).
func TestLabelPropagation(t *testing.T) {
	tr := &fakeTracker{veto: map[reachArc]bool{}}
	s := NewScheduler(Config{Cross: tr})
	// Cross sub-txn 100 writes x via prepare; local 1 reads x afterwards →
	// arc 100→1 and label 100 on T1.
	s.MustBeginCross(t, 100)
	if vote, _ := s.Apply(model.WriteFinal(100, 7)); !vote.Accepted {
		t.Fatalf("prepare vote: %v", vote)
	}
	if _, err := s.CommitPrepared(100); err != nil {
		t.Fatal(err)
	}
	s.MustApply(model.Begin(1))
	s.MustApply(model.Read(1, 7)) // arc 100→1, label 100 arrives at T1
	s.MustApply(model.WriteFinal(1, 8))
	// Cross sub-txn 200 reads y=8 → arc 1→200, and label 100 must arrive
	// at 200: reach-arc 100→200.
	s.MustBeginCross(t, 200)
	if res := s.MustApply(model.Read(200, 8)); !res.Accepted {
		t.Fatal("read rejected")
	}
	want := []reachArc{{100, 200}}
	if len(tr.arcs) != 1 || tr.arcs[0] != want[0] {
		t.Fatalf("reported arcs = %v, want %v", tr.arcs, want)
	}
}

// TestLabelLatePropagation covers the late case: the connecting arc into a
// cross sub-node exists first, and the label arrives afterwards at an
// upstream node — it must flood through the existing arc and still report
// the reach-arc.
func TestLabelLatePropagation(t *testing.T) {
	tr := &fakeTracker{veto: map[reachArc]bool{}}
	s := NewScheduler(Config{Cross: tr})
	// Active local 1 reads 5; cross 200's prepared write of 5 creates the
	// arc 1→200 (no labels yet: T1 carries none).
	s.MustApply(model.Begin(1))
	s.MustApply(model.Read(1, 5))
	s.MustBeginCross(t, 200)
	if vote, _ := s.Apply(model.WriteFinal(200, 5)); !vote.Accepted {
		t.Fatal("prepare 200")
	}
	if _, err := s.CommitPrepared(200); err != nil {
		t.Fatal(err)
	}
	// Cross 300 writes 9 and commits; then still-active 1 reads 9: label
	// 300 arrives at T1 and must flood through the *existing* arc 1→200,
	// reporting 300→200.
	s.MustBeginCross(t, 300)
	if vote, _ := s.Apply(model.WriteFinal(300, 9)); !vote.Accepted {
		t.Fatal("prepare 300")
	}
	if _, err := s.CommitPrepared(300); err != nil {
		t.Fatal(err)
	}
	if res := s.MustApply(model.Read(1, 9)); !res.Accepted {
		t.Fatal("read of 9 rejected")
	}
	found := false
	for _, a := range tr.arcs {
		if a == (reachArc{300, 200}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("late reach-arc 300→200 not reported; arcs = %v", tr.arcs)
	}
}

// TestLabelNamesIncarnation is the engine's TestCrossIDReuseStaleLabels on
// one scheduler: cross T1 hands its label down a chain of local
// transactions and aborts, leaving a stale copy on L; the tracker forgets
// T1, then tracks the reused ID again for a fresh sub-transaction. Nothing
// erases the stale copy. The new incarnation's label must still flood
// through L, or the registry never hears of its reach-path to T2.
func TestLabelNamesIncarnation(t *testing.T) {
	tr := &fakeTracker{veto: map[reachArc]bool{}}
	s := NewScheduler(Config{Cross: tr})
	must := func(st model.Step) {
		t.Helper()
		if !s.MustApply(st).Accepted {
			t.Fatalf("%v rejected", st)
		}
	}
	// v reads e0; cross T1 reads e0; L writes e0 (arcs v→L, T1→L, label T1
	// on L); M reads L's e4 (label T1 on M) and writes e6.
	must(model.Begin(5))
	must(model.Read(5, 0))
	s.MustBeginCross(t, 1)
	must(model.Read(1, 0))
	must(model.Begin(7))
	must(model.WriteFinal(7, 0, 4))
	must(model.Begin(11))
	must(model.Read(11, 4))
	must(model.WriteFinal(11, 6))
	if err := s.AbortTxn(1); err != nil {
		t.Fatal(err)
	}
	s.Retire(1)
	// Cross T2 reads M's e6 (arc M→T2): M's dead label is pruned, L's stays.
	s.MustBeginCross(t, 2)
	must(model.Read(2, 6))
	// The ID is tracked again, for a new sub-transaction reading e8; v's
	// write of e8 links T1→v and so T1→v→L→M→T2.
	s.MustBeginCross(t, 1)
	must(model.Read(1, 8))
	tr.arcs = nil
	must(model.WriteFinal(5, 8))
	if !slices.Contains(tr.arcs, reachArc{1, 2}) {
		t.Fatalf("reach-arc 1→2 of the reused ID not reported (flood stopped at a stale label); arcs = %v", tr.arcs)
	}
}

// TestVetoedFloodLeavesNoLabels: a registry veto met halfway through a
// flood rejects the step, and the labels the flood had already placed
// downstream must go with it. Left behind, they sit on nodes whose
// successors lack them, and a later flood of the same label stops there:
// here the real path A→L→C would go unreported, and a global cycle through
// A and C could commit.
func TestVetoedFloodLeavesNoLabels(t *testing.T) {
	tr := &fakeTracker{veto: map[reachArc]bool{}}
	s := NewScheduler(Config{Cross: tr})
	must := func(st model.Step) {
		t.Helper()
		if !s.MustApply(st).Accepted {
			t.Fatalf("%v rejected", st)
		}
	}
	// Cross A reads e1. X reads e2, which W overwrites (X→W); active L
	// reads W's e3 (W→L) and e4, which cross C then writes (L→C).
	s.MustBeginCross(t, 1)
	must(model.Read(1, 1))
	must(model.Begin(2))
	must(model.Read(2, 2))
	must(model.Begin(3))
	must(model.WriteFinal(3, 2, 3))
	must(model.Begin(4))
	must(model.Read(4, 3))
	must(model.Read(4, 4))
	s.MustBeginCross(t, 5)
	if vote, err := s.Apply(model.WriteFinal(5, 4)); err != nil || !vote.Accepted {
		t.Fatalf("prepare C: %v %v", vote, err)
	}
	// X's write of e1 links A→X: label A floods X→W→L and meets C, and the
	// registry vetoes A→C, so X is rejected.
	tr.veto[reachArc{1, 5}] = true
	if res := s.MustApply(model.WriteFinal(2, 1)); res.Accepted || !res.CrossVeto {
		t.Fatalf("X's write: %+v, want a cross veto", res)
	}
	if s.numLabeled != 0 {
		t.Fatalf("the vetoed flood left labels on %d slots", s.numLabeled)
	}
	// L's own write of e1 now links A→L for real: A→L→C must be reported.
	delete(tr.veto, reachArc{1, 5})
	tr.arcs = nil
	must(model.WriteFinal(4, 1))
	if !slices.Contains(tr.arcs, reachArc{1, 5}) {
		t.Fatalf("reach-arc A→C through L not reported; arcs = %v", tr.arcs)
	}
}

// TestPrepareVetoAtCollect: a veto on the incoming labels of a step leaves
// the graph unmutated (the rejection comes before any arc lands).
func TestPrepareVetoAtCollect(t *testing.T) {
	tr := &fakeTracker{veto: map[reachArc]bool{}}
	s := NewScheduler(Config{Cross: tr})
	s.MustBeginCross(t, 100)
	if vote, _ := s.Apply(model.WriteFinal(100, 7)); !vote.Accepted {
		t.Fatal("prepare 100")
	}
	if _, err := s.CommitPrepared(100); err != nil {
		t.Fatal(err)
	}
	s.MustBeginCross(t, 200)
	s.MustApply(model.Read(200, 7)) // arc 100→200 reported and allowed
	arcsBefore := s.Graph().NumArcs()
	// A fresh cross sub-txn 300 reading 7 would report reach-arc 100→300;
	// script the tracker to veto exactly that and the read must be
	// rejected with no graph mutation.
	tr.veto[reachArc{100, 300}] = true
	s.MustBeginCross(t, 300)
	res := s.MustApply(model.Read(300, 7))
	if res.Accepted || res.Aborted != 300 {
		t.Fatalf("vetoed read: %+v, want rejection aborting 300", res)
	}
	if s.Graph().NumArcs() != arcsBefore {
		t.Fatalf("vetoed read changed arcs: %d → %d", arcsBefore, s.Graph().NumArcs())
	}
	if s.Status(300) != model.StatusAborted {
		t.Fatalf("status(300) = %v", s.Status(300))
	}
}

// TestFloodVetoRejects: a vote whose arcs landed and whose label flood
// the registry then vetoes is a NO vote like any other: the final write is
// rejected as a cross veto, and the sub-node leaves the graph at once
// rather than waiting prepared for the coordinator's ABORT.
func TestFloodVetoRejects(t *testing.T) {
	tr := &fakeTracker{veto: map[reachArc]bool{}}
	s := NewScheduler(Config{Cross: tr})
	// Cross A reads e10; cross T reads e20, which cross C then writes and
	// commits (T→C).
	s.MustBeginCross(t, 100)
	s.MustApply(model.Read(100, 10))
	s.MustBeginCross(t, 1)
	s.MustApply(model.Read(1, 20))
	s.MustBeginCross(t, 200)
	if vote, err := s.Apply(model.WriteFinal(200, 20)); err != nil || !vote.Accepted {
		t.Fatalf("prepare C: %v %v", vote, err)
	}
	if _, err := s.CommitPrepared(200); err != nil {
		t.Fatal(err)
	}
	// T's write of e10 links A→T (reported and allowed); label A then
	// floods T→C, and the registry vetoes A→C.
	tr.veto[reachArc{100, 200}] = true
	vote, err := s.Apply(model.WriteFinal(1, 10))
	if err != nil || vote.Accepted || !vote.CrossVeto || vote.Aborted != 1 {
		t.Fatalf("prepare T: %+v %v, want a cross veto aborting T1", vote, err)
	}
	if !slices.Contains(tr.arcs, reachArc{100, 1}) {
		t.Fatalf("the flood ran before the veto: arcs = %v", tr.arcs)
	}
	if s.Txn(1) != nil || s.Graph().HasNode(1) || s.Prepared(1) || s.NumPrepared() != 0 {
		t.Fatalf("after the flood veto: Txn(T)=%v node=%v Prepared(T)=%v NumPrepared=%d, want gone and 0",
			s.Txn(1), s.Graph().HasNode(1), s.Prepared(1), s.NumPrepared())
	}
	if err := s.AbortTxn(1); err == nil {
		t.Fatal("the coordinator's ABORT found the vetoed sub-node still there")
	}
}

// TestDeletionGatedByLabels: a completed local transaction carrying a live
// cross label is not deletable; once the label's transaction retires it
// becomes deletable again.
func TestDeletionGatedByLabels(t *testing.T) {
	tr := &fakeTracker{veto: map[reachArc]bool{}}
	s := NewScheduler(Config{Policy: GreedyC1{}, SweepManual: true, Cross: tr})
	// Cross 100 writes 7; local 1 reads 7 (label 100), writes 8, completes.
	s.MustBeginCross(t, 100)
	if vote, _ := s.Apply(model.WriteFinal(100, 7)); !vote.Accepted {
		t.Fatal("prepare 100")
	}
	if _, err := s.CommitPrepared(100); err != nil {
		t.Fatal(err)
	}
	s.MustApply(model.Begin(1))
	s.MustApply(model.Read(1, 7))
	s.MustApply(model.WriteFinal(1, 8))
	// Both are completed with no active predecessors: plain C1 would
	// delete both, but the gate must refuse the labeled T1 and the
	// sub-transaction 100 while the tracker keeps them live.
	deleted := s.SweepNow()
	if len(deleted) != 0 {
		t.Fatalf("sweep deleted %v while labels live", deleted)
	}
	if s.policyDeletable(1) {
		t.Fatal("labeled node reported deletable")
	}
	s.Retire(100)
	deleted = s.SweepNow()
	if len(deleted) != 2 {
		t.Fatalf("sweep after retirement deleted %v, want both", deleted)
	}
}

// TestAbortedPrepareLeavesNoPhantomWrite: an ABORTed prepare must not leave
// lastWriteSeq/lastWriter claiming the entity was overwritten — otherwise
// Corollary 1's noncurrency test (and, after client ID reuse, even the
// presence guard) would let NoncurrentSafe delete the true current writer.
func TestAbortedPrepareLeavesNoPhantomWrite(t *testing.T) {
	tr := &fakeTracker{veto: map[reachArc]bool{}}
	s := NewScheduler(Config{Cross: tr})
	// T10 writes entity 5 and completes: the current writer.
	s.MustApply(model.Begin(10))
	s.MustApply(model.WriteFinal(10, 5))
	// Cross T50 prepares a write of 5, then the coordinator aborts it.
	s.MustBeginCross(t, 50)
	if vote, err := s.Apply(model.WriteFinal(50, 5)); err != nil || !vote.Accepted {
		t.Fatalf("prepare: %v %v", vote, err)
	}
	if err := s.AbortTxn(50); err != nil {
		t.Fatal(err)
	}
	// Entity 5 was never overwritten: T10 must not read as noncurrent.
	if s.Noncurrent(10) {
		t.Fatal("aborted prepare left a phantom overwrite: Noncurrent(10) = true")
	}
	// A prepare that actually commits does install the bookkeeping.
	s.MustBeginCross(t, 60)
	if vote, _ := s.Apply(model.WriteFinal(60, 5)); !vote.Accepted {
		t.Fatal("prepare 60")
	}
	if _, err := s.CommitPrepared(60); err != nil {
		t.Fatal(err)
	}
	if !s.Noncurrent(10) {
		t.Fatal("committed overwrite not reflected: Noncurrent(10) = false")
	}
}
