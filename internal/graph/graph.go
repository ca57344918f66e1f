// Package graph implements the directed-graph engine underneath every
// scheduler in this repository: the conflict graph of Hadzilacos &
// Yannakakis' "Deleting Completed Transactions" and the reduced graphs
// obtained by deleting nodes.
//
// The paper asks three things of its graph:
//
//   - an incremental cycle test for a step whose new arcs all share an
//     endpoint (so one search suffices);
//   - reachability restricted to paths whose intermediate nodes satisfy a
//     predicate ("tight" paths through completed transactions only);
//   - node reduction — deleting a node and splicing arcs from all its
//     immediate predecessors to all its immediate successors, the paper's
//     RCG(p, Ti) operation.
//
// Nodes are model.TxnID values. The graph never stores parallel arcs or
// self-loops.
//
// # One kernel, one translation layer
//
// The kernel is a dense arena keyed by Ref: each node gets a small
// contiguous slot index, recycled through a free list when the node is
// removed. Adjacency is slot-indexed slices ([][]Ref), and traversals mark
// visited slots in an epoch-stamped array, so the hot operations
// (ReachesAnyTarget, LinkTargetsTo, ReduceRef, FindAncestorRef) allocate
// nothing in steady state. The schedulers and the engine call the kernel
// directly and cache each live transaction's Ref.
//
// Exactly four functions own a traversal loop:
//
//   - ReachesAnyTarget — forward from one slot to any marked target;
//   - FindAncestorRef — backward from one slot to the first slot
//     satisfying a predicate;
//   - closureInto — every node met along through-filtered paths, in
//     either direction;
//   - TopoOrder — Kahn's algorithm over the whole graph.
//
// Every ID-keyed query (Reachable, ReachesAny, AnyReaches, the closures,
// Descendants/Ancestors, Acyclic) translates its IDs to Refs and calls one
// of those four; the paper toolkit (multiwrite, predeclared, closure, the
// generic deletion conditions) reads the graph through them. The queries
// that mark targets (Reachable, ReachesAny, AnyReaches) clobber the
// current target set.
//
// Traversal methods share per-graph scratch state (the visited array and
// DFS stack): predicates and yield callbacks passed to them must not call
// other traversal methods on the same graph.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/model"
)

// NodeSet is a set of transaction IDs.
type NodeSet map[model.TxnID]struct{}

// Has reports membership.
func (s NodeSet) Has(id model.TxnID) bool { _, ok := s[id]; return ok }

// Add inserts id.
func (s NodeSet) Add(id model.TxnID) { s[id] = struct{}{} }

// Sorted returns the members in ascending order.
func (s NodeSet) Sorted() []model.TxnID {
	out := make([]model.TxnID, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Arc is a directed edge between two transactions.
type Arc struct {
	From, To model.TxnID
}

// Ref is a node's slot index in the graph's arena. Refs are dense small
// integers recycled through a free list: a Ref is valid only between the
// AddNodeRef that returned it and the RemoveRef/ReduceRef that frees it,
// after which the same Ref may name a different node. Schedulers cache
// the Ref of each live transaction to stay off the id→slot map on the
// hot path.
type Ref = int32

// NoRef is the sentinel for "no slot".
const NoRef Ref = -1

// Graph is a mutable directed graph over transaction IDs.
// The zero value is not usable; call New.
type Graph struct {
	idx map[model.TxnID]Ref // id → slot
	ids []model.TxnID       // slot → id (model.NoTxn when the slot is free)
	out [][]Ref             // slot → successor slots (unordered)
	in  [][]Ref             // slot → predecessor slots (unordered)
	// free lists recycled slots; adjacency slices keep their capacity
	// across reuse so steady-state churn allocates nothing.
	free  []Ref
	nodes int
	arcs  int // directed edges (each stored once)

	// Epoch-stamped traversal scratch: visited[s] == epoch means slot s
	// was seen by the current traversal; bumping the epoch resets the
	// whole array in O(1).
	visited []uint32
	epoch   uint32
	stack   []Ref

	// Target scratch for the schedulers' cycle test: tmark[s] == tepoch
	// marks slot s as a candidate arc tail, tlist records the marked
	// slots for LinkTargetsTo.
	tmark  []uint32
	tepoch uint32
	tlist  []Ref
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{idx: make(map[model.TxnID]Ref)}
}

// AddNode inserts a node with no arcs. Adding an existing node is a no-op.
func (g *Graph) AddNode(id model.TxnID) { g.AddNodeRef(id) }

// AddNodeRef inserts a node (idempotent) and returns its slot.
//
//txgc:hotpath
func (g *Graph) AddNodeRef(id model.TxnID) Ref {
	if r, ok := g.idx[id]; ok {
		return r
	}
	var r Ref
	if n := len(g.free); n > 0 {
		r = g.free[n-1]
		g.free = g.free[:n-1]
		g.ids[r] = id
	} else {
		r = Ref(len(g.ids))
		g.ids = append(g.ids, id)
		g.out = append(g.out, nil)
		g.in = append(g.in, nil)
		g.visited = append(g.visited, 0)
		g.tmark = append(g.tmark, 0)
	}
	g.idx[id] = r
	g.nodes++
	return r
}

// Ref returns the slot of id, or NoRef if absent.
func (g *Graph) Ref(id model.TxnID) Ref {
	if r, ok := g.idx[id]; ok {
		return r
	}
	return NoRef
}

// IDOf returns the transaction occupying slot r.
func (g *Graph) IDOf(r Ref) model.TxnID { return g.ids[r] }

// HasNode reports whether id is present.
func (g *Graph) HasNode(id model.TxnID) bool {
	_, ok := g.idx[id]
	return ok
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return g.nodes }

// NumArcs returns the arc count.
func (g *Graph) NumArcs() int { return g.arcs }

// Nodes returns all node IDs in ascending order.
func (g *Graph) Nodes() []model.TxnID {
	out := make([]model.TxnID, 0, len(g.idx))
	for id := range g.idx {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// hasArcRef reports whether the arc from→to exists, scanning the shorter
// of the two incidence lists.
func (g *Graph) hasArcRef(from, to Ref) bool {
	if len(g.out[from]) <= len(g.in[to]) {
		for _, s := range g.out[from] {
			if s == to {
				return true
			}
		}
		return false
	}
	for _, p := range g.in[to] {
		if p == from {
			return true
		}
	}
	return false
}

// addArcRef inserts from→to by slot, ignoring self-loops and duplicates.
func (g *Graph) addArcRef(from, to Ref) {
	if from == to || g.hasArcRef(from, to) {
		return
	}
	g.out[from] = append(g.out[from], to)
	g.in[to] = append(g.in[to], from)
	g.arcs++
}

// AddArc inserts from→to. Self-loops and duplicate arcs are ignored; both
// endpoints must already be nodes (it panics otherwise — schedulers always
// add nodes first, so a violation is a programming error).
func (g *Graph) AddArc(from, to model.TxnID) {
	f, ok := g.idx[from]
	if !ok {
		panic(fmt.Sprintf("graph: AddArc from missing node T%d", from))
	}
	t, ok := g.idx[to]
	if !ok {
		panic(fmt.Sprintf("graph: AddArc to missing node T%d", to))
	}
	g.addArcRef(f, t)
}

// HasArc reports whether from→to exists.
func (g *Graph) HasArc(from, to model.TxnID) bool {
	f, ok := g.idx[from]
	if !ok {
		return false
	}
	t, ok := g.idx[to]
	if !ok {
		return false
	}
	return g.hasArcRef(f, t)
}

func (g *Graph) idList(refs []Ref) []model.TxnID {
	out := make([]model.TxnID, len(refs))
	for i, r := range refs {
		out[i] = g.ids[r]
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SuccList returns the immediate successors of id, sorted.
func (g *Graph) SuccList(id model.TxnID) []model.TxnID {
	r, ok := g.idx[id]
	if !ok {
		return nil
	}
	return g.idList(g.out[r])
}

// PredList returns the immediate predecessors of id, sorted.
func (g *Graph) PredList(id model.TxnID) []model.TxnID {
	r, ok := g.idx[id]
	if !ok {
		return nil
	}
	return g.idList(g.in[r])
}

// DropRef removes the first occurrence of x from list by swap-remove
// (order is not preserved). It is the shared primitive for slice-backed
// Ref sets — the graph's incidence lists and the schedulers' per-entity
// reader/writer indexes.
func DropRef(list []Ref, x Ref) []Ref {
	for i, v := range list {
		if v == x {
			list[i] = list[len(list)-1]
			return list[:len(list)-1]
		}
	}
	return list
}

// RemoveNode deletes id and all incident arcs (an *abort*: paths through
// the node are lost on purpose). Removing a missing node is a no-op.
func (g *Graph) RemoveNode(id model.TxnID) {
	if r, ok := g.idx[id]; ok {
		g.RemoveRef(r)
	}
}

// OutRefs returns slot r's successor slots. The slice aliases the graph's
// adjacency storage: callers must treat it as read-only and must not hold
// it across mutations.
func (g *Graph) OutRefs(r Ref) []Ref { return g.out[r] }

// InRefs returns slot r's predecessor slots, under OutRefs' aliasing
// contract.
func (g *Graph) InRefs(r Ref) []Ref { return g.in[r] }

// RemoveRef is RemoveNode by slot; r must be a live slot.
func (g *Graph) RemoveRef(r Ref) {
	for _, s := range g.out[r] {
		g.in[s] = DropRef(g.in[s], r)
		g.arcs--
	}
	for _, p := range g.in[r] {
		g.out[p] = DropRef(g.out[p], r)
		g.arcs--
	}
	g.out[r] = g.out[r][:0]
	g.in[r] = g.in[r][:0]
	delete(g.idx, g.ids[r])
	g.ids[r] = model.NoTxn
	g.free = append(g.free, r)
	g.nodes--
}

// Reduce deletes id and splices arcs from every immediate predecessor to
// every immediate successor, so no path through id is lost. This is the
// paper's reduction operation D(G, Ti): "RCG(p, Ti) is CG(p) with node Ti
// deleted and arcs to and from it replaced by arcs from all its immediate
// predecessors to all its immediate successors."
func (g *Graph) Reduce(id model.TxnID) {
	if r, ok := g.idx[id]; ok {
		g.ReduceRef(r)
	}
}

// ReduceRef is Reduce by slot; r must be a live slot. The splice iterates
// the incidence lists in place: no sorting, no materialized sets.
//
// Annotated as a hot-path root in its own right: deletion sweeps reach it
// through the Policy interface, which the static call-graph walk from
// Apply cannot cross.
//
//txgc:hotpath
func (g *Graph) ReduceRef(r Ref) {
	// The splice appends to out[p] and in[s] for p, s ≠ r, never to the
	// lists of r itself, so iterating them directly is safe.
	for _, p := range g.in[r] {
		for _, s := range g.out[r] {
			// A pred that is also a succ would mean a cycle through r;
			// reduced graphs are acyclic so this cannot happen, but be
			// defensive: addArcRef never creates a self-loop.
			g.addArcRef(p, s)
		}
	}
	g.RemoveRef(r)
}

// bumpEpoch starts a new traversal epoch, resetting the visited array in
// O(1) (and in O(V) once every 2^32 traversals, at wraparound).
func (g *Graph) bumpEpoch() uint32 {
	g.epoch++
	if g.epoch == 0 {
		clear(g.visited)
		g.epoch = 1
	}
	return g.epoch
}

// ResetTargets begins a new target set for the slot-level cycle test.
// The typical scheduler step is:
//
//	g.ResetTargets()
//	for each conflicting transaction w { g.MarkTarget(wRef) }
//	if g.ReachesAnyTarget(actingRef) { reject }
//	g.LinkTargetsTo(actingRef)
//
// None of the four calls allocates in steady state.
func (g *Graph) ResetTargets() {
	g.tepoch++
	if g.tepoch == 0 {
		clear(g.tmark)
		g.tepoch = 1
	}
	g.tlist = g.tlist[:0]
}

// MarkTarget adds a live slot to the current target set (idempotent).
func (g *Graph) MarkTarget(r Ref) {
	if g.tmark[r] == g.tepoch {
		return
	}
	g.tmark[r] = g.tepoch
	g.tlist = append(g.tlist, r)
}

// Targets returns the marked slots of the current target set. The slice
// aliases scratch storage: treat it as read-only and do not hold it past
// the next ResetTargets.
func (g *Graph) Targets() []Ref { return g.tlist }

// ReachesAnyTarget reports whether src reaches any marked target by a
// path of length ≥ 1, or length 0 if src itself is marked. It is the
// scheduler's cycle test: a step adds arcs tail→src for each marked tail,
// so a cycle appears iff src already reaches some tail.
//
//txgc:hotpath
func (g *Graph) ReachesAnyTarget(src Ref) bool {
	if len(g.tlist) == 0 {
		return false
	}
	if g.tmark[src] == g.tepoch {
		return true
	}
	ep := g.bumpEpoch()
	g.visited[src] = ep
	stack := append(g.stack[:0], src)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.out[n] {
			if g.tmark[s] == g.tepoch {
				g.stack = stack
				return true
			}
			if g.visited[s] != ep {
				g.visited[s] = ep
				stack = append(stack, s)
			}
		}
	}
	g.stack = stack
	return false
}

// LinkTargetsTo adds an arc tail→head for every marked target (self-loops
// and duplicates ignored). Callers run ReachesAnyTarget first, so the new
// arcs cannot create a cycle.
//
//txgc:hotpath
func (g *Graph) LinkTargetsTo(head Ref) {
	for _, t := range g.tlist {
		g.addArcRef(t, head)
	}
}

// FindAncestorRef searches backwards from src and returns the first slot
// it meets that reaches src by a non-empty path and satisfies want, or
// NoRef when no ancestor does. It stops at the first hit and materializes
// nothing: visited slots are epoch stamps, the stack is graph scratch. want
// is only ever called, never retained, so the func value a caller builds
// for it stays off the heap. Which qualifying ancestor is returned is
// unspecified, but a qualifying node is never expanded, so the path the hit
// was reached by runs through non-qualifying nodes only.
//
//txgc:hotpath
func (g *Graph) FindAncestorRef(src Ref, want func(Ref) bool) Ref {
	ep := g.bumpEpoch()
	g.visited[src] = ep
	stack := append(g.stack[:0], src)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.in[n] {
			if g.visited[p] == ep {
				continue
			}
			if want(p) {
				g.stack = stack
				return p
			}
			g.visited[p] = ep
			stack = append(stack, p)
		}
	}
	g.stack = stack
	return NoRef
}

// BeginVisit starts a caller-driven traversal: it clears the visit stamps
// in O(1). A scheduler that knows its nodes' states walks InRefs/OutRefs
// itself and uses VisitRef/VisitedRef as its visited set — the stamps left
// behind are the closure, readable until the next traversal of any kind on
// g (every search and closure method starts one).
func (g *Graph) BeginVisit() { g.bumpEpoch() }

// VisitRef stamps slot r in the current traversal and reports whether this
// was its first visit.
func (g *Graph) VisitRef(r Ref) bool {
	if g.visited[r] == g.epoch {
		return false
	}
	g.visited[r] = g.epoch
	return true
}

// VisitedRef reports whether slot r was stamped in the current traversal.
func (g *Graph) VisitedRef(r Ref) bool { return g.visited[r] == g.epoch }

// markTargets makes ids (those that are nodes) the current target set.
func (g *Graph) markTargets(ids NodeSet) {
	g.ResetTargets()
	for id := range ids {
		if r, ok := g.idx[id]; ok {
			g.MarkTarget(r)
		}
	}
}

// Reachable reports whether there is a (possibly empty) path from src to
// dst. Reachable(x, x) is true.
func (g *Graph) Reachable(src, dst model.TxnID) bool {
	return g.ReachesAny(src, NodeSet{dst: {}})
}

// ReachesAny reports whether src reaches any member of targets by a path
// of length ≥ 1, or length 0 if src itself is in targets.
func (g *Graph) ReachesAny(src model.TxnID, targets NodeSet) bool {
	sr, ok := g.idx[src]
	if !ok {
		return false
	}
	g.markTargets(targets)
	return g.ReachesAnyTarget(sr)
}

// AnyReaches reports whether any member of sources reaches dst, by the
// same path lengths as ReachesAny.
func (g *Graph) AnyReaches(sources NodeSet, dst model.TxnID) bool {
	dr, ok := g.idx[dst]
	if !ok {
		return false
	}
	g.markTargets(sources)
	marked := func(r Ref) bool { return g.tmark[r] == g.tepoch }
	return marked(dr) || g.FindAncestorRef(dr, marked) != NoRef
}

// ForwardClosure returns every node reachable from src by a non-empty path
// whose *intermediate* nodes all satisfy through. src itself is not
// included unless reachable by such a path (i.e. never, since the graph is
// acyclic in our uses). Endpoints are unconstrained: this matches the
// paper's "tight successor" when through selects completed transactions.
func (g *Graph) ForwardClosure(src model.TxnID, through func(model.TxnID) bool) NodeSet {
	return g.closureInto(make(NodeSet), src, through, g.out)
}

// BackwardClosure is ForwardClosure on the reversed graph: every node that
// reaches src by a non-empty path whose intermediate nodes satisfy through.
func (g *Graph) BackwardClosure(src model.TxnID, through func(model.TxnID) bool) NodeSet {
	return g.closureInto(make(NodeSet), src, through, g.in)
}

// closureInto adds to out every node met from src along adj (g.out or
// g.in), expanding only src and the nodes that satisfy through.
func (g *Graph) closureInto(out NodeSet, src model.TxnID, through func(model.TxnID) bool, adj [][]Ref) NodeSet {
	sr, ok := g.idx[src]
	if !ok {
		return out
	}
	// visited marks nodes whose neighbors we have pushed ("expanded").
	ep := g.bumpEpoch()
	g.visited[sr] = ep
	stack := append(g.stack[:0], sr)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range adj[n] {
			if s != sr {
				out.Add(g.ids[s])
			}
			if g.visited[s] != ep && through(g.ids[s]) {
				g.visited[s] = ep
				stack = append(stack, s)
			}
		}
	}
	g.stack = stack
	return out
}

func anyNode(model.TxnID) bool { return true }

// Descendants returns all nodes reachable from src by a non-empty path.
func (g *Graph) Descendants(src model.TxnID) NodeSet { return g.ForwardClosure(src, anyNode) }

// Ancestors returns all nodes that reach src by a non-empty path.
func (g *Graph) Ancestors(src model.TxnID) NodeSet { return g.BackwardClosure(src, anyNode) }

// Acyclic reports whether the whole graph is acyclic (used by tests, the
// snapshot loader and the offline CSR checker).
func (g *Graph) Acyclic() bool { return g.TopoOrder() != nil }

// TopoOrder returns the nodes in a topological order — Kahn's algorithm,
// made deterministic by sorting the sources and each batch of newly freed
// nodes — or nil if the graph has a cycle. An empty graph's order is empty
// and non-nil.
func (g *Graph) TopoOrder() []model.TxnID {
	indeg := make([]int, len(g.ids))
	var queue []model.TxnID
	for id, r := range g.idx {
		indeg[r] = len(g.in[r])
		if indeg[r] == 0 {
			queue = append(queue, id)
		}
	}
	slices.Sort(queue)
	order := make([]model.TxnID, 0, g.nodes)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		freed := len(queue)
		for _, s := range g.out[g.idx[n]] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, g.ids[s])
			}
		}
		slices.Sort(queue[freed:])
	}
	if len(order) != g.nodes {
		return nil
	}
	return order
}

// Arcs returns every arc, sorted by (From, To). Intended for tests and
// rendering; O(E log E).
func (g *Graph) Arcs() []Arc {
	out := make([]Arc, 0, g.arcs)
	for from, r := range g.idx {
		for _, s := range g.out[r] {
			out = append(out, Arc{from, g.ids[s]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Equal reports whether two graphs have identical node and arc sets.
func (g *Graph) Equal(o *Graph) bool {
	if g.nodes != o.nodes || g.arcs != o.arcs {
		return false
	}
	for id, r := range g.idx {
		or, ok := o.idx[id]
		if !ok || len(g.out[r]) != len(o.out[or]) {
			return false
		}
		for _, s := range g.out[r] {
			os, ok := o.idx[g.ids[s]]
			if !ok || !o.hasArcRef(or, os) {
				return false
			}
		}
	}
	return true
}

// String renders the graph as "T1->{T2 T3}; T2->{}" lines for debugging.
func (g *Graph) String() string {
	var b strings.Builder
	for _, id := range g.Nodes() {
		fmt.Fprintf(&b, "T%d -> {", id)
		for i, s := range g.SuccList(id) {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "T%d", s)
		}
		b.WriteString("}\n")
	}
	return b.String()
}
