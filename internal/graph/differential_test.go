package graph

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/model"
)

// refGraph is the retained map-based reference implementation of the
// directed-graph engine — the pre-arena design, kept verbatim in spirit:
// adjacency as nested maps, no slot recycling, no scratch reuse. The
// differential test below pits the dense-arena Graph against it over tens
// of thousands of random operations; any divergence in mutation results
// or reachability answers fails the test.
type refGraph struct {
	out  map[model.TxnID]map[model.TxnID]bool
	in   map[model.TxnID]map[model.TxnID]bool
	arcs int
}

func newRefGraph() *refGraph {
	return &refGraph{
		out: map[model.TxnID]map[model.TxnID]bool{},
		in:  map[model.TxnID]map[model.TxnID]bool{},
	}
}

func (r *refGraph) addNode(id model.TxnID) {
	if _, ok := r.out[id]; ok {
		return
	}
	r.out[id] = map[model.TxnID]bool{}
	r.in[id] = map[model.TxnID]bool{}
}

func (r *refGraph) hasNode(id model.TxnID) bool { _, ok := r.out[id]; return ok }

func (r *refGraph) addArc(from, to model.TxnID) {
	if from == to || r.out[from][to] {
		return
	}
	r.out[from][to] = true
	r.in[to][from] = true
	r.arcs++
}

func (r *refGraph) removeNode(id model.TxnID) {
	if !r.hasNode(id) {
		return
	}
	for s := range r.out[id] {
		delete(r.in[s], id)
		r.arcs--
	}
	for p := range r.in[id] {
		delete(r.out[p], id)
		r.arcs--
	}
	delete(r.out, id)
	delete(r.in, id)
}

func (r *refGraph) reduce(id model.TxnID) {
	if !r.hasNode(id) {
		return
	}
	for p := range r.in[id] {
		for s := range r.out[id] {
			if p != s {
				r.addArc(p, s)
			}
		}
	}
	r.removeNode(id)
}

func (r *refGraph) reachable(src, dst model.TxnID) bool {
	if src == dst {
		return r.hasNode(src)
	}
	if !r.hasNode(src) || !r.hasNode(dst) {
		return false
	}
	seen := map[model.TxnID]bool{src: true}
	stack := []model.TxnID{src}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for s := range r.out[n] {
			if s == dst {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

func (r *refGraph) reachesAny(src model.TxnID, targets NodeSet) bool {
	if !r.hasNode(src) || len(targets) == 0 {
		return false
	}
	if targets.Has(src) {
		return true
	}
	seen := map[model.TxnID]bool{src: true}
	stack := []model.TxnID{src}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for s := range r.out[n] {
			if targets.Has(s) {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

func (r *refGraph) anyReaches(sources NodeSet, dst model.TxnID) bool {
	for s := range sources {
		if r.reachable(s, dst) {
			return true
		}
	}
	return false
}

func (r *refGraph) forwardClosure(src model.TxnID, through func(model.TxnID) bool) NodeSet {
	out := make(NodeSet)
	if !r.hasNode(src) {
		return out
	}
	expanded := map[model.TxnID]bool{src: true}
	stack := []model.TxnID{src}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for s := range r.out[n] {
			if s != src {
				out.Add(s)
			}
			if !expanded[s] && through(s) {
				expanded[s] = true
				stack = append(stack, s)
			}
		}
	}
	return out
}

func (r *refGraph) nodes() []model.TxnID {
	out := make([]model.TxnID, 0, len(r.out))
	for id := range r.out {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (r *refGraph) succList(id model.TxnID) []model.TxnID {
	out := make([]model.TxnID, 0, len(r.out[id]))
	for s := range r.out[id] {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (r *refGraph) predList(id model.TxnID) []model.TxnID {
	out := make([]model.TxnID, 0, len(r.in[id]))
	for p := range r.in[id] {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameIDs(a, b []model.TxnID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameSet(a, b NodeSet) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b.Has(id) {
			return false
		}
	}
	return true
}

// TestGraphDifferentialRandomOps drives ≥10k random mutations (add node,
// add acyclic arc, reduce, remove) through the arena graph and the
// map-based reference simultaneously, checking after every mutation that
// counts agree and, on a sample, that reachability, closures, adjacency
// lists, and the set-to-node reachability queries agree. The workload aggressively recycles slots
// (removes + fresh IDs) to stress the free list and the epoch-stamped
// visited array.
func TestGraphDifferentialRandomOps(t *testing.T) {
	const ops = 12000
	rng := rand.New(rand.NewSource(7))
	g := New()
	ref := newRefGraph()
	var alive []model.TxnID
	next := model.TxnID(0)

	pick := func() model.TxnID { return alive[rng.Intn(len(alive))] }
	dropAlive := func(id model.TxnID) {
		for i, v := range alive {
			if v == id {
				alive[i] = alive[len(alive)-1]
				alive = alive[:len(alive)-1]
				return
			}
		}
	}

	for op := 0; op < ops; op++ {
		roll := rng.Intn(100)
		switch {
		case roll < 25 || len(alive) < 2:
			id := next
			next++
			g.AddNode(id)
			ref.addNode(id)
			alive = append(alive, id)
		case roll < 60:
			from, to := pick(), pick()
			// Keep the graph acyclic, as every scheduler does: check the
			// would-be cycle on both implementations and demand agreement.
			cycleRef := from == to || ref.reachable(to, from)
			cycleG := from == to || g.Reachable(to, from)
			if cycleRef != cycleG {
				t.Fatalf("op %d: cycle check T%d→T%d: ref=%v arena=%v", op, from, to, cycleRef, cycleG)
			}
			if !cycleRef {
				g.AddArc(from, to)
				ref.addArc(from, to)
			}
		case roll < 75:
			id := pick()
			g.Reduce(id)
			ref.reduce(id)
			dropAlive(id)
		case roll < 85:
			id := pick()
			g.RemoveNode(id)
			ref.removeNode(id)
			dropAlive(id)
		default:
			// Query-only round: ReachesAny and AnyReaches with a random
			// set, now and then holding an ID that is not a node.
			end := pick()
			set := make(NodeSet)
			for k := 0; k < 1+rng.Intn(4); k++ {
				set.Add(pick())
			}
			if rng.Intn(4) == 0 {
				set.Add(next)
			}
			if got, want := g.ReachesAny(end, set), ref.reachesAny(end, set); got != want {
				t.Fatalf("op %d: ReachesAny(T%d, %v) = %v, ref %v", op, end, set.Sorted(), got, want)
			}
			if got, want := g.AnyReaches(set, end), ref.anyReaches(set, end); got != want {
				t.Fatalf("op %d: AnyReaches(%v, T%d) = %v, ref %v", op, set.Sorted(), end, got, want)
			}
		}

		if g.NumNodes() != len(ref.out) {
			t.Fatalf("op %d: NumNodes = %d, ref %d", op, g.NumNodes(), len(ref.out))
		}
		if g.NumArcs() != ref.arcs {
			t.Fatalf("op %d: NumArcs = %d, ref %d", op, g.NumArcs(), ref.arcs)
		}
		if op%97 != 0 || len(alive) == 0 {
			continue
		}
		// Periodic deep comparison.
		if !sameIDs(g.Nodes(), ref.nodes()) {
			t.Fatalf("op %d: node sets diverged:\n%v\n%v", op, g.Nodes(), ref.nodes())
		}
		id := pick()
		if !sameIDs(g.SuccList(id), ref.succList(id)) {
			t.Fatalf("op %d: SuccList(T%d) diverged: %v vs %v", op, id, g.SuccList(id), ref.succList(id))
		}
		if !sameIDs(g.PredList(id), ref.predList(id)) {
			t.Fatalf("op %d: PredList(T%d) diverged: %v vs %v", op, id, g.PredList(id), ref.predList(id))
		}
		src, dst := pick(), pick()
		if got, want := g.Reachable(src, dst), ref.reachable(src, dst); got != want {
			t.Fatalf("op %d: Reachable(T%d, T%d) = %v, ref %v", op, src, dst, got, want)
		}
		// Tight-closure agreement under a random predicate.
		barrier := pick()
		through := func(n model.TxnID) bool { return n != barrier }
		if got, want := g.ForwardClosure(src, through), ref.forwardClosure(src, through); !sameSet(got, want) {
			t.Fatalf("op %d: ForwardClosure(T%d) diverged: %v vs %v", op, src, got.Sorted(), want.Sorted())
		}
		// The early-exit ancestor search agrees with the materialized
		// closure: it finds a qualifying ancestor iff Ancestors holds one,
		// and what it returns is one of them.
		mod := model.TxnID(2 + rng.Intn(5))
		wantID := func(n model.TxnID) bool { return n%mod == 0 }
		anc := g.Ancestors(src)
		exists := false
		for a := range anc {
			exists = exists || wantID(a)
		}
		hit := g.FindAncestorRef(g.Ref(src), func(r Ref) bool { return wantID(g.IDOf(r)) })
		if (hit != NoRef) != exists {
			t.Fatalf("op %d: FindAncestorRef(T%d, %%%d) = %d, but Ancestors %v", op, src, mod, hit, anc.Sorted())
		}
		if hit != NoRef && (!anc.Has(g.IDOf(hit)) || !wantID(g.IDOf(hit))) {
			t.Fatalf("op %d: FindAncestorRef(T%d, %%%d) returned T%d, not a qualifying ancestor of %v", op, src, mod, g.IDOf(hit), anc.Sorted())
		}
		// …reached through non-qualifying nodes only.
		if hit != NoRef && !g.BackwardClosure(src, func(n model.TxnID) bool { return !wantID(n) }).Has(g.IDOf(hit)) {
			t.Fatalf("op %d: FindAncestorRef(T%d, %%%d) returned T%d, which every path reaches through a qualifying node", op, src, mod, g.IDOf(hit))
		}
		// A caller-driven walk over the visit stamps reproduces the tight
		// backward closure.
		wantBack := g.BackwardClosure(src, through)
		gotBack := visitBackward(g, g.Ref(src), through)
		if !sameSet(gotBack, wantBack) {
			t.Fatalf("op %d: visit-stamp backward walk from T%d diverged: %v vs %v", op, src, gotBack.Sorted(), wantBack.Sorted())
		}
		if !g.Acyclic() {
			t.Fatalf("op %d: arena graph reports a cycle in an acyclic workload", op)
		}
	}
	if next < 1000 {
		t.Fatalf("workload too small: only %d nodes ever created", next)
	}
}

// visitBackward is BackwardClosure written the way a scheduler drives the
// visit primitives: its own stack over InRefs, VisitRef as the visited set,
// and the closure read back off the stamps.
func visitBackward(g *Graph, src Ref, through func(model.TxnID) bool) NodeSet {
	g.BeginVisit()
	g.VisitRef(src)
	stack := []Ref{src}
	var reached []Ref
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.InRefs(n) {
			if !g.VisitRef(p) {
				continue
			}
			reached = append(reached, p)
			if through(g.IDOf(p)) {
				stack = append(stack, p)
			}
		}
	}
	out := make(NodeSet)
	for _, r := range reached {
		if !g.VisitedRef(r) {
			panic("stamp lost before the next traversal")
		}
		out.Add(g.IDOf(r))
	}
	return out
}

// TestFindAncestorRefDoesNotAllocate pins the search's contract: stamps and
// stack are graph scratch, and a non-escaping predicate stays on the stack.
func TestFindAncestorRefDoesNotAllocate(t *testing.T) {
	g := New()
	const n = 200
	refs := make([]Ref, n)
	for i := range refs {
		refs[i] = g.AddNodeRef(model.TxnID(i))
		if i > 0 {
			g.AddArc(model.TxnID(i-1), model.TxnID(i))
		}
	}
	last := refs[n-1]
	g.FindAncestorRef(last, func(Ref) bool { return false }) // grow the stack once
	allocs := testing.AllocsPerRun(100, func() {
		if g.FindAncestorRef(last, func(r Ref) bool { return r == refs[0] }) != refs[0] {
			t.Fatal("chain head not found")
		}
	})
	if allocs != 0 {
		t.Fatalf("FindAncestorRef allocates %.1f times per search", allocs)
	}
}

// TestGraphSlotRecycling pins the free-list behavior: removing nodes and
// adding fresh ones reuses slots without leaking arcs or identities.
func TestGraphSlotRecycling(t *testing.T) {
	g := New()
	for round := 0; round < 50; round++ {
		base := model.TxnID(round * 10)
		for i := model.TxnID(0); i < 10; i++ {
			g.AddNode(base + i)
		}
		for i := model.TxnID(1); i < 10; i++ {
			g.AddArc(base+i-1, base+i)
		}
		if g.NumNodes() != 10 || g.NumArcs() != 9 {
			t.Fatalf("round %d: %d nodes / %d arcs, want 10/9", round, g.NumNodes(), g.NumArcs())
		}
		if !g.Reachable(base, base+9) {
			t.Fatalf("round %d: chain broken", round)
		}
		for i := model.TxnID(0); i < 10; i++ {
			if i%2 == 0 {
				g.RemoveNode(base + i)
			} else {
				g.Reduce(base + i)
			}
		}
		if g.NumNodes() != 0 || g.NumArcs() != 0 {
			t.Fatalf("round %d: %d nodes / %d arcs left after clear", round, g.NumNodes(), g.NumArcs())
		}
	}
}
