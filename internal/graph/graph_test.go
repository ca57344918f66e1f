package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

func mk(t *testing.T, arcs ...[2]model.TxnID) *Graph {
	t.Helper()
	g := New()
	for _, a := range arcs {
		g.AddNode(a[0])
		g.AddNode(a[1])
		g.AddArc(a[0], a[1])
	}
	return g
}

func TestAddNodeIdempotent(t *testing.T) {
	g := New()
	g.AddNode(1)
	g.AddNode(1)
	if g.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", g.NumNodes())
	}
}

func TestAddArcBasics(t *testing.T) {
	g := mk(t, [2]model.TxnID{1, 2})
	if !g.HasArc(1, 2) {
		t.Fatal("missing arc 1->2")
	}
	if g.HasArc(2, 1) {
		t.Fatal("unexpected arc 2->1")
	}
	g.AddArc(1, 2) // duplicate
	if g.NumArcs() != 1 {
		t.Fatalf("NumArcs = %d, want 1", g.NumArcs())
	}
	g.AddNode(3)
	g.AddArc(3, 3) // self-loop ignored
	if g.NumArcs() != 1 {
		t.Fatalf("NumArcs after self-loop = %d, want 1", g.NumArcs())
	}
}

func TestAddArcMissingNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := New()
	g.AddNode(1)
	g.AddArc(1, 99)
}

func TestRemoveNodeDropsPathsThroughIt(t *testing.T) {
	g := mk(t, [2]model.TxnID{1, 2}, [2]model.TxnID{2, 3})
	if !g.Reachable(1, 3) {
		t.Fatal("1 should reach 3")
	}
	g.RemoveNode(2)
	if g.Reachable(1, 3) {
		t.Fatal("RemoveNode must not preserve paths")
	}
	if g.NumArcs() != 0 {
		t.Fatalf("NumArcs = %d, want 0", g.NumArcs())
	}
}

func TestReducePreservesPaths(t *testing.T) {
	g := mk(t, [2]model.TxnID{1, 2}, [2]model.TxnID{2, 3}, [2]model.TxnID{4, 2})
	g.Reduce(2)
	if g.HasNode(2) {
		t.Fatal("node 2 still present")
	}
	if !g.HasArc(1, 3) || !g.HasArc(4, 3) {
		t.Fatalf("reduction must splice pred->succ arcs; got:\n%s", g.String())
	}
}

func TestReduceMissingNodeNoop(t *testing.T) {
	g := mk(t, [2]model.TxnID{1, 2})
	g.Reduce(99)
	if g.NumNodes() != 2 || g.NumArcs() != 1 {
		t.Fatal("reduce of missing node changed the graph")
	}
}

func TestReachable(t *testing.T) {
	g := mk(t, [2]model.TxnID{1, 2}, [2]model.TxnID{2, 3}, [2]model.TxnID{5, 4})
	cases := []struct {
		from, to model.TxnID
		want     bool
	}{
		{1, 3, true}, {3, 1, false}, {1, 1, true}, {1, 4, false}, {5, 4, true},
	}
	for _, c := range cases {
		if got := g.Reachable(c.from, c.to); got != c.want {
			t.Errorf("Reachable(%d,%d) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestReachesAny(t *testing.T) {
	g := mk(t, [2]model.TxnID{1, 2}, [2]model.TxnID{2, 3})
	if !g.ReachesAny(1, NodeSet{3: {}}) {
		t.Fatal("1 reaches 3")
	}
	if g.ReachesAny(3, NodeSet{1: {}, 2: {}}) {
		t.Fatal("3 reaches nothing")
	}
	if !g.ReachesAny(1, NodeSet{1: {}}) {
		t.Fatal("src in targets counts")
	}
	if g.ReachesAny(1, NodeSet{}) {
		t.Fatal("empty targets")
	}
}

func TestAnyReaches(t *testing.T) {
	g := mk(t, [2]model.TxnID{1, 2}, [2]model.TxnID{2, 3})
	if !g.AnyReaches(NodeSet{1: {}}, 3) {
		t.Fatal("1 reaches 3")
	}
	if g.AnyReaches(NodeSet{3: {}}, 1) {
		t.Fatal("3 does not reach 1")
	}
}

func TestForwardClosureTightSemantics(t *testing.T) {
	// 1 -> 2 -> 3, with 2 blocked: closure(1) must include 2 (endpoint)
	// but not 3 (needs to pass through 2).
	g := mk(t, [2]model.TxnID{1, 2}, [2]model.TxnID{2, 3})
	got := g.ForwardClosure(1, func(n model.TxnID) bool { return n != 2 })
	if !got.Has(2) {
		t.Fatal("closure must include direct successor 2 (endpoints unconstrained)")
	}
	if got.Has(3) {
		t.Fatal("closure must not pass through blocked node 2")
	}
	// With 2 allowed, 3 is included.
	got = g.ForwardClosure(1, func(model.TxnID) bool { return true })
	if !got.Has(3) {
		t.Fatal("closure should include 3 when 2 is allowed")
	}
}

func TestBackwardClosureTightSemantics(t *testing.T) {
	g := mk(t, [2]model.TxnID{1, 2}, [2]model.TxnID{2, 3})
	got := g.BackwardClosure(3, func(n model.TxnID) bool { return n != 2 })
	if !got.Has(2) || got.Has(1) {
		t.Fatalf("backward closure through blocked 2 wrong: %v", got.Sorted())
	}
}

func TestClosureSrcNotIncluded(t *testing.T) {
	// Acyclic graph: src never reachable from itself by non-empty path.
	g := mk(t, [2]model.TxnID{1, 2})
	if got := g.ForwardClosure(1, func(model.TxnID) bool { return true }); got.Has(1) {
		t.Fatal("src must not be in its own forward closure of a DAG")
	}
}

func TestAcyclicAndTopo(t *testing.T) {
	g := mk(t, [2]model.TxnID{1, 2}, [2]model.TxnID{2, 3}, [2]model.TxnID{1, 3})
	if !g.Acyclic() {
		t.Fatal("DAG reported cyclic")
	}
	order := g.TopoOrder()
	pos := map[model.TxnID]int{}
	for i, id := range order {
		pos[id] = i
	}
	for _, a := range g.Arcs() {
		if pos[a.From] >= pos[a.To] {
			t.Fatalf("topo order violates arc %v", a)
		}
	}
	// Make it cyclic.
	g.AddArc(3, 1)
	if g.Acyclic() {
		t.Fatal("cycle not detected")
	}
	if g.TopoOrder() != nil {
		t.Fatal("TopoOrder on cyclic graph must be nil")
	}
}

func TestDescendantsAncestors(t *testing.T) {
	g := mk(t, [2]model.TxnID{1, 2}, [2]model.TxnID{2, 3}, [2]model.TxnID{4, 3})
	d := g.Descendants(1)
	if !d.Has(2) || !d.Has(3) || d.Has(4) {
		t.Fatalf("Descendants(1) = %v", d.Sorted())
	}
	a := g.Ancestors(3)
	if !a.Has(1) || !a.Has(2) || !a.Has(4) {
		t.Fatalf("Ancestors(3) = %v", a.Sorted())
	}
}

// Property: Reduce preserves reachability among the remaining nodes.
func TestReduceReachabilityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const n = 12
		g := New()
		for i := model.TxnID(0); i < n; i++ {
			g.AddNode(i)
		}
		// Random DAG: arcs only from lower to higher IDs.
		for i := model.TxnID(0); i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Intn(4) == 0 {
					g.AddArc(i, j)
				}
			}
		}
		victim := model.TxnID(r.Intn(n))
		before := map[[2]model.TxnID]bool{}
		for i := model.TxnID(0); i < n; i++ {
			for j := model.TxnID(0); j < n; j++ {
				if i != victim && j != victim {
					before[[2]model.TxnID{i, j}] = g.Reachable(i, j)
				}
			}
		}
		g.Reduce(victim)
		for k, want := range before {
			if got := g.Reachable(k[0], k[1]); got != want {
				t.Logf("seed %d: reachability %v changed: %v -> %v", seed, k, want, got)
				return false
			}
		}
		return g.Acyclic()
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: RemoveNode never makes an unreachable pair reachable.
func TestRemoveNodeMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const n = 10
		g := New()
		for i := model.TxnID(0); i < n; i++ {
			g.AddNode(i)
		}
		for i := model.TxnID(0); i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Intn(3) == 0 {
					g.AddArc(i, j)
				}
			}
		}
		victim := model.TxnID(r.Intn(n))
		before := map[[2]model.TxnID]bool{}
		for i := model.TxnID(0); i < n; i++ {
			for j := model.TxnID(0); j < n; j++ {
				before[[2]model.TxnID{i, j}] = g.Reachable(i, j)
			}
		}
		g.RemoveNode(victim)
		for i := model.TxnID(0); i < n; i++ {
			for j := model.TxnID(0); j < n; j++ {
				if i == victim || j == victim {
					continue
				}
				if g.Reachable(i, j) && !before[[2]model.TxnID{i, j}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeSetSorted(t *testing.T) {
	s := NodeSet{}
	s.Add(3)
	s.Add(1)
	s.Add(2)
	got := s.Sorted()
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("not sorted: %v", got)
		}
	}
}

func TestStringRendering(t *testing.T) {
	g := mk(t, [2]model.TxnID{1, 2})
	if s := g.String(); s == "" {
		t.Fatal("String should render something")
	}
}
