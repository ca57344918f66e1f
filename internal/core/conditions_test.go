package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
)

// fakeView lets tests fabricate arbitrary status/access assignments on
// hand-built graphs (including shapes unreachable in the basic model but
// reachable on reduced graphs).
type fakeView struct {
	status map[model.TxnID]model.Status
	access map[model.TxnID]model.AccessSet
}

func (v *fakeView) Status(id model.TxnID) model.Status {
	if s, ok := v.status[id]; ok {
		return s
	}
	return model.StatusAborted
}

func (v *fakeView) Access(id model.TxnID) model.AccessSet { return v.access[id] }

func TestExample1GraphShape(t *testing.T) {
	s := Example1Scheduler(Config{})
	g := s.Graph()
	wantArcs := [][2]model.TxnID{{1, 2}, {1, 3}, {2, 3}}
	if g.NumArcs() != len(wantArcs) {
		t.Fatalf("arcs = %d, want %d:\n%s", g.NumArcs(), len(wantArcs), g.String())
	}
	for _, a := range wantArcs {
		if !g.HasArc(a[0], a[1]) {
			t.Fatalf("missing arc T%d->T%d", a[0], a[1])
		}
	}
}

func TestExample1BothSatisfyC1(t *testing.T) {
	s := Example1Scheduler(Config{})
	for _, id := range []model.TxnID{Ex1T2, Ex1T3} {
		ok, viol := s.CheckC1(id)
		if !ok {
			t.Fatalf("T%d should satisfy C1; violation: %v", id, viol)
		}
	}
}

func TestExample1DeletingOneDisablesTheOther(t *testing.T) {
	// Delete T3 first; T2 must then violate C1 (the paper's point).
	s := Example1Scheduler(Config{})
	if err := s.deleteTxn(Ex1T3); err != nil {
		t.Fatal(err)
	}
	ok, viol := s.CheckC1(Ex1T2)
	if ok {
		t.Fatal("after deleting T3, T2 must violate C1")
	}
	if viol.Tj != Ex1T1 || viol.X != Ex1X {
		t.Fatalf("violation witness = (T%d, %d), want (T%d, %d)", viol.Tj, viol.X, Ex1T1, Ex1X)
	}
	// Symmetric order.
	s2 := Example1Scheduler(Config{})
	if err := s2.deleteTxn(Ex1T2); err != nil {
		t.Fatal(err)
	}
	if ok, _ := s2.CheckC1(Ex1T3); ok {
		t.Fatal("after deleting T2, T3 must violate C1")
	}
}

func TestC1ActiveTransactionNeverDeletable(t *testing.T) {
	s := Example1Scheduler(Config{})
	if ok, _ := s.CheckC1(Ex1T1); ok {
		t.Fatal("active transaction must not satisfy C1")
	}
}

func TestC1VacuousWithoutActiveTightPreds(t *testing.T) {
	// Two completed transactions in serial order, no actives: both pass.
	s := NewScheduler(Config{})
	s.MustApply(model.Begin(1))
	s.MustApply(model.WriteFinal(1, 0))
	s.MustApply(model.Begin(2))
	s.MustApply(model.Read(2, 0))
	s.MustApply(model.WriteFinal(2, 0))
	for _, id := range []model.TxnID{1, 2} {
		if ok, _ := s.CheckC1(id); !ok {
			t.Fatalf("T%d has no active predecessors; C1 should hold", id)
		}
	}
}

func TestActiveTightPredecessorsTightness(t *testing.T) {
	// Hand-built: A(active) -> B(active) -> C(completed) -> D(completed).
	// D's active tight predecessors: B (direct-arc-free path B->C->D has
	// completed intermediate C) but NOT A (every path from A passes
	// through the active B).
	g := graph.New()
	for _, id := range []model.TxnID{10, 11, 12, 13} {
		g.AddNode(id)
	}
	g.AddArc(10, 11) // A -> B
	g.AddArc(11, 12) // B -> C
	g.AddArc(12, 13) // C -> D
	v := &fakeView{
		status: map[model.TxnID]model.Status{
			10: model.StatusActive,
			11: model.StatusActive,
			12: model.StatusCompleted,
			13: model.StatusCompleted,
		},
		access: map[model.TxnID]model.AccessSet{},
	}
	got := ActiveTightPredecessors(v, g, 13)
	if len(got) != 1 || got[0] != 11 {
		t.Fatalf("ActiveTightPredecessors = %v, want [11]", got)
	}
}

// TestActiveTightPredecessorsMatchesClosure checks the stamp walk against
// the definition read off BackwardClosure: on random DAGs with random
// statuses, and behind a completed chain longer than the walk's stack
// buffer.
func TestActiveTightPredecessorsMatchesClosure(t *testing.T) {
	want := func(v *fakeView, g *graph.Graph, ti model.TxnID) []model.TxnID {
		var out []model.TxnID
		for id := range g.BackwardClosure(ti, func(n model.TxnID) bool { return terminated(v, n) }) {
			if v.Status(id) == model.StatusActive {
				out = append(out, id)
			}
		}
		slices.Sort(out)
		return out
	}
	statuses := []model.Status{model.StatusActive, model.StatusCompleted, model.StatusCompleted, model.StatusAborted}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 200; round++ {
		g := graph.New()
		v := &fakeView{status: map[model.TxnID]model.Status{}}
		n := 2 + rng.Intn(30)
		for id := model.TxnID(1); id <= model.TxnID(n); id++ {
			g.AddNode(id)
			v.status[id] = statuses[rng.Intn(len(statuses))]
			for from := model.TxnID(1); from < id; from++ {
				if rng.Intn(5) == 0 {
					g.AddArc(from, id)
				}
			}
		}
		for id := model.TxnID(1); id <= model.TxnID(n); id++ {
			if got, w := ActiveTightPredecessors(v, g, id), want(v, g, id); !slices.Equal(got, w) {
				t.Fatalf("round %d: ActiveTightPredecessors(T%d) = %v, closure says %v\n%v", round, id, got, w, g)
			}
		}
	}
	// A fan of 600 completed nodes into T1000, each read by the active
	// T1: every one is on the stack at once.
	g := graph.New()
	v := &fakeView{status: map[model.TxnID]model.Status{1: model.StatusActive, 1000: model.StatusCompleted}}
	g.AddNode(1)
	g.AddNode(1000)
	for id := model.TxnID(2); id < 602; id++ {
		v.status[id] = model.StatusCompleted
		g.AddNode(id)
		g.AddArc(1, id)
		g.AddArc(id, 1000)
	}
	if got := ActiveTightPredecessors(v, g, 1000); !slices.Equal(got, []model.TxnID{1}) {
		t.Fatalf("ActiveTightPredecessors(T1000) = %v, want [1]", got)
	}
	if got := ActiveTightPredecessors(v, g, 5000); got != nil {
		t.Fatalf("ActiveTightPredecessors of a missing node = %v, want nil", got)
	}
}

func TestCompletedTightSuccessorsExcludesThroughActive(t *testing.T) {
	// Tj(active) -> M(active) -> K(completed): K unreachable tightly.
	// Tj(active) -> C(completed) -> L(completed): both C and L tight.
	g := graph.New()
	for _, id := range []model.TxnID{1, 2, 3, 4, 5} {
		g.AddNode(id)
	}
	g.AddArc(1, 2) // Tj -> M
	g.AddArc(2, 3) // M -> K
	g.AddArc(1, 4) // Tj -> C
	g.AddArc(4, 5) // C -> L
	v := &fakeView{
		status: map[model.TxnID]model.Status{
			1: model.StatusActive,
			2: model.StatusActive,
			3: model.StatusCompleted,
			4: model.StatusCompleted,
			5: model.StatusCompleted,
		},
	}
	got := CompletedTightSuccessors(v, g, 1)
	if got.Has(3) {
		t.Fatal("K is only reachable through an active node; not tight")
	}
	if !got.Has(4) || !got.Has(5) {
		t.Fatalf("C and L should be tight successors; got %v", got.Sorted())
	}
	if got.Has(2) {
		t.Fatal("active M is not a completed successor")
	}
}

func TestC1StrengthRequirement(t *testing.T) {
	// T1 active reads x. T2 completes writing x. T3 completes READING x
	// (and writing nothing relevant). T2's witness for (T1, x) must write
	// x; T3 only reads it, so deleting T2 must be unsafe.
	s := NewScheduler(Config{})
	s.MustApply(model.Begin(1))
	s.MustApply(model.Read(1, 0))
	s.MustApply(model.Begin(2))
	s.MustApply(model.WriteFinal(2, 0))
	s.MustApply(model.Begin(3))
	s.MustApply(model.Read(3, 0))
	s.MustApply(model.WriteFinal(3)) // empty write set
	ok, viol := s.CheckC1(2)
	if ok {
		t.Fatal("T2 wrote x; reader T3 is too weak a witness, C1 must fail")
	}
	if viol.Strength != model.WriteAccess {
		t.Fatalf("violation strength = %v, want write", viol.Strength)
	}
	// T3 in contrast only READ x, and T2 wrote it, so T3 is deletable.
	if ok, v := s.CheckC1(3); !ok {
		t.Fatalf("T3 should satisfy C1 (T2 writes x): %v", v)
	}
}

func TestLemma1HasActivePredecessor(t *testing.T) {
	s := Example1Scheduler(Config{})
	if !HasActivePredecessor(s, s.Graph(), Ex1T2) {
		t.Fatal("T2 has active predecessor T1")
	}
	// A disconnected completed txn has none.
	s.MustApply(model.Begin(9))
	s.MustApply(model.WriteFinal(9, 99))
	if HasActivePredecessor(s, s.Graph(), 9) {
		t.Fatal("T9 is isolated")
	}
}

func TestC2SingletonMatchesC1(t *testing.T) {
	s := Example1Scheduler(Config{})
	for _, id := range []model.TxnID{Ex1T2, Ex1T3} {
		okC1, _ := s.CheckC1(id)
		okC2, _ := s.CheckC2(graph.NodeSet{id: {}})
		if okC1 != okC2 {
			t.Fatalf("C1 vs C2 singleton disagree for T%d: %v vs %v", id, okC1, okC2)
		}
	}
}

func TestC2PairExample1Fails(t *testing.T) {
	s := Example1Scheduler(Config{})
	ok, viol := s.CheckC2(graph.NodeSet{Ex1T2: {}, Ex1T3: {}})
	if ok {
		t.Fatal("deleting both T2 and T3 simultaneously must violate C2")
	}
	if viol == nil || viol.Tj != Ex1T1 {
		t.Fatalf("violation = %+v", viol)
	}
}

func TestC2RejectsNonCompletedMembers(t *testing.T) {
	s := Example1Scheduler(Config{})
	if ok, _ := s.CheckC2(graph.NodeSet{Ex1T1: {}}); ok {
		t.Fatal("active member must fail C2")
	}
	if ok, _ := s.CheckC2(graph.NodeSet{99: {}}); ok {
		t.Fatal("unknown member must fail C2")
	}
}

func TestC2WitnessOutsideNRequired(t *testing.T) {
	// T1 active reads x; T2, T3, T4 each read+write x serially. Deleting
	// {T2, T3} is fine (T4 witnesses both). Deleting {T2, T3, T4} is not.
	s := NewScheduler(Config{})
	s.MustApply(model.Begin(1))
	s.MustApply(model.Read(1, 0))
	for id := model.TxnID(2); id <= 4; id++ {
		s.MustApply(model.Begin(id))
		s.MustApply(model.Read(id, 0))
		s.MustApply(model.WriteFinal(id, 0))
	}
	if ok, v := s.CheckC2(graph.NodeSet{2: {}, 3: {}}); !ok {
		t.Fatalf("pair {T2,T3} should pass C2 (T4 is the witness): %v", v)
	}
	if ok, _ := s.CheckC2(graph.NodeSet{2: {}, 3: {}, 4: {}}); ok {
		t.Fatal("all three cannot be deleted simultaneously")
	}
}

func TestNoncurrent(t *testing.T) {
	s := Example1Scheduler(Config{})
	if !s.Noncurrent(Ex1T2) {
		t.Fatal("T2's only entity x was overwritten by T3: noncurrent")
	}
	if s.Noncurrent(Ex1T3) {
		t.Fatal("T3 wrote x last: current")
	}
	if s.Noncurrent(Ex1T1) {
		t.Fatal("active transactions are not candidates")
	}
	if s.Noncurrent(99) {
		t.Fatal("unknown transaction")
	}
}

func TestNoncurrentReaderOfCurrentValue(t *testing.T) {
	// T2 writes x; T3 reads x afterwards and completes. T3 read the
	// current value: current, despite writing nothing.
	s := NewScheduler(Config{})
	s.MustApply(model.Begin(2))
	s.MustApply(model.WriteFinal(2, 0))
	s.MustApply(model.Begin(3))
	s.MustApply(model.Read(3, 0))
	s.MustApply(model.WriteFinal(3))
	if s.Noncurrent(3) {
		t.Fatal("T3 read the current value of x: current")
	}
	if s.Noncurrent(2) {
		t.Fatal("T2 wrote the current value of x: current")
	}
}

func TestCorollary1NoncurrentSatisfiesC1(t *testing.T) {
	// Corollary 1: on the (unreduced) conflict graph, noncurrent implies
	// C1. Exercise on Example 1.
	s := Example1Scheduler(Config{})
	if !s.Noncurrent(Ex1T2) {
		t.Fatal("precondition: T2 noncurrent")
	}
	if ok, v := s.CheckC1(Ex1T2); !ok {
		t.Fatalf("Corollary 1 violated: %v", v)
	}
}

func TestCurrentWriterPresent(t *testing.T) {
	s := Example1Scheduler(Config{})
	if !s.CurrentWriterPresent(Ex1T2) {
		t.Fatal("T3, x's current writer, is present")
	}
	// Delete T3: T2's current writer disappears.
	if err := s.deleteTxn(Ex1T3); err != nil {
		t.Fatal(err)
	}
	if s.CurrentWriterPresent(Ex1T2) {
		t.Fatal("after deleting T3, T2's current writer is gone")
	}
}

func TestCurrentWriterPresentNeverWritten(t *testing.T) {
	// A read of a never-written entity has no current writer.
	s := NewScheduler(Config{})
	s.MustApply(model.Begin(1))
	s.MustApply(model.Read(1, 42))
	s.MustApply(model.WriteFinal(1))
	if s.CurrentWriterPresent(1) {
		t.Fatal("entity 42 was never written; no current writer")
	}
}

func TestC1CandidatesExample1(t *testing.T) {
	s := Example1Scheduler(Config{})
	got := C1Candidates(s, s.Graph(), s.CompletedTxns())
	if len(got) != 2 {
		t.Fatalf("candidates = %v, want [T2 T3]", got)
	}
}

func TestViolationErrorStrings(t *testing.T) {
	v1 := &C1Violation{Ti: 1, Tj: 2, X: 3, Strength: model.WriteAccess}
	if v1.Error() == "" {
		t.Fatal("empty C1Violation error")
	}
	v2 := &C2Violation{Ti: 1, Tj: 2, X: 3, Strength: model.ReadAccess}
	if v2.Error() == "" {
		t.Fatal("empty C2Violation error")
	}
}
