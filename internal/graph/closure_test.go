// The transitive-closure graph lives in internal/closure (a paper artefact
// outside the kernel packages). Its tests stay in this directory, as an
// external test package, so their names in the suite do not change; the
// property test holds it to this package's Graph+Reduce.
package graph_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/closure"
	"repro/internal/graph"
	"repro/internal/model"
)

func TestClosureBasics(t *testing.T) {
	c := closure.New()
	c.AddNode(1)
	c.AddNode(1)
	if c.NumNodes() != 1 {
		t.Fatal("idempotent AddNode")
	}
	c.AddArc(1, 2) // auto-adds node 2
	c.AddArc(2, 3)
	if !c.Reaches(1, 3) {
		t.Fatal("closure must record 1⇝3")
	}
	if c.Reaches(3, 1) {
		t.Fatal("no reverse path")
	}
	if !c.Reaches(1, 1) {
		t.Fatal("self-reach for present node")
	}
	if c.NumArcs() != 2 {
		t.Fatalf("direct arcs = %d", c.NumArcs())
	}
	c.AddArc(1, 2) // duplicate
	if c.NumArcs() != 2 {
		t.Fatal("duplicate arc counted")
	}
}

func TestClosureWouldCycle(t *testing.T) {
	c := closure.New()
	c.AddArc(1, 2)
	c.AddArc(2, 3)
	if !c.WouldCycleArc(3, 1) {
		t.Fatal("3->1 closes a cycle")
	}
	if c.WouldCycleArc(1, 3) {
		t.Fatal("1->3 is a chord")
	}
	if !c.WouldCycleArc(5, 5) {
		t.Fatal("self-loop")
	}
	if !c.WouldCycleInto(1, graph.NodeSet{3: {}}) {
		t.Fatal("batch into 1 from 3 cycles")
	}
	if c.WouldCycleInto(3, graph.NodeSet{1: {}, 2: {}}) {
		t.Fatal("batch into 3 is fine")
	}
}

func TestClosureAddCyclePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := closure.New()
	c.AddArc(1, 2)
	c.AddArc(2, 1)
}

func TestClosureDeletePreservesReachability(t *testing.T) {
	// The paper's remark: deleting a node from the closure needs no
	// splicing.
	c := closure.New()
	c.AddArc(1, 2)
	c.AddArc(2, 3)
	c.AddArc(4, 2)
	c.DeleteNode(2)
	if !c.Reaches(1, 3) || !c.Reaches(4, 3) {
		t.Fatal("paths through the deleted node must survive in the closure")
	}
	if c.HasNode(2) {
		t.Fatal("node still present")
	}
	c.DeleteNode(99) // no-op
}

func TestClosureAncestorsDescendants(t *testing.T) {
	c := closure.New()
	c.AddArc(1, 2)
	c.AddArc(2, 3)
	if d := c.Descendants(1); !d.Has(2) || !d.Has(3) || d.Has(1) {
		t.Fatalf("Descendants(1) = %v", d.Sorted())
	}
	if a := c.Ancestors(3); !a.Has(1) || !a.Has(2) {
		t.Fatalf("Ancestors(3) = %v", a.Sorted())
	}
	if n := c.Nodes(); len(n) != 3 {
		t.Fatalf("Nodes = %v", n)
	}
}

// Property: Closure agrees with Graph+Reduce on reachability under a
// random interleaving of arc insertions and deletions.
func TestClosureAgreesWithGraphProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const n = 10
		g := graph.New()
		c := closure.New()
		ids := make([]model.TxnID, n)
		for i := range ids {
			ids[i] = model.TxnID(i)
			g.AddNode(ids[i])
			c.AddNode(ids[i])
		}
		alive := map[model.TxnID]bool{}
		for _, id := range ids {
			alive[id] = true
		}
		for op := 0; op < 40; op++ {
			switch r.Intn(4) {
			case 0, 1, 2: // try an arc
				u := ids[r.Intn(n)]
				v := ids[r.Intn(n)]
				if u == v || !alive[u] || !alive[v] {
					continue
				}
				// Both engines must agree on the cycle test.
				gc := g.Reachable(v, u) // u→v closes a cycle iff v reaches u
				cc := c.WouldCycleArc(u, v)
				if gc != cc {
					t.Logf("seed %d: cycle test disagrees for %d->%d: graph=%v closure=%v", seed, u, v, gc, cc)
					return false
				}
				if !gc {
					g.AddArc(u, v)
					c.AddArc(u, v)
				}
			case 3: // delete (reduce) a random alive node
				u := ids[r.Intn(n)]
				if !alive[u] {
					continue
				}
				alive[u] = false
				g.Reduce(u)
				c.DeleteNode(u)
			}
		}
		// Reachability among alive nodes must agree everywhere.
		for _, u := range ids {
			for _, v := range ids {
				if !alive[u] || !alive[v] {
					continue
				}
				if g.Reachable(u, v) != c.Reaches(u, v) {
					t.Logf("seed %d: reach(%d,%d) disagrees", seed, u, v)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkClosureCycleCheck(b *testing.B) {
	c := closure.New()
	for i := model.TxnID(0); i < 200; i++ {
		c.AddNode(i)
	}
	for i := model.TxnID(0); i+1 < 200; i++ {
		c.AddArc(i, i+1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.WouldCycleArc(199, 0)
	}
}

func BenchmarkGraphCycleCheckDFS(b *testing.B) {
	g := graph.New()
	for i := model.TxnID(0); i < 200; i++ {
		g.AddNode(i)
	}
	for i := model.TxnID(0); i+1 < 200; i++ {
		g.AddArc(i, i+1)
	}
	targets := graph.NodeSet{0: {}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ReachesAny(199, targets)
	}
}
