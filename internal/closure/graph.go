// Package closure realises the paper's implementation remark: "If the
// cycle-checking algorithm keeps track of the transitive closure of the
// graph (to facilitate testing whether a new arc can be inserted), then
// removing a transaction is equivalent to simply deleting the
// corresponding node and incident edges from the transitive closure."
//
// Graph maintains full reachability incrementally: arc insertion costs
// O(V²) worst case but cycle tests are O(1) per candidate arc, and node
// deletion (the paper's point) is plain removal — no predecessor×successor
// splicing required, because the closure already records every implied
// path. Scheduler is the basic conflict-graph scheduler rebuilt on it.
//
// This is a paper artefact, kept out of the kernel packages: nothing the
// engine runs imports it, and internal/core and internal/graph export
// nothing for its sake.
package closure

import (
	"repro/internal/graph"
	"repro/internal/model"
)

// Graph is a directed graph that maintains its own transitive closure.
type Graph struct {
	// reach[u] = set of nodes v (v != u) with a path u ⇝ v.
	reach map[model.TxnID]graph.NodeSet
	// rreach[v] = set of nodes u with a path u ⇝ v (inverse of reach).
	rreach map[model.TxnID]graph.NodeSet
	// direct arcs, for NumArcs/rendering parity with graph.Graph.
	out  map[model.TxnID]graph.NodeSet
	arcs int
}

// New returns an empty closure graph.
func New() *Graph {
	return &Graph{
		reach:  make(map[model.TxnID]graph.NodeSet),
		rreach: make(map[model.TxnID]graph.NodeSet),
		out:    make(map[model.TxnID]graph.NodeSet),
	}
}

// AddNode inserts an isolated node (idempotent).
func (c *Graph) AddNode(id model.TxnID) {
	if _, ok := c.reach[id]; ok {
		return
	}
	c.reach[id] = make(graph.NodeSet)
	c.rreach[id] = make(graph.NodeSet)
	c.out[id] = make(graph.NodeSet)
}

// HasNode reports membership.
func (c *Graph) HasNode(id model.TxnID) bool {
	_, ok := c.reach[id]
	return ok
}

// NumNodes returns the node count.
func (c *Graph) NumNodes() int { return len(c.reach) }

// NumArcs returns the count of DIRECT arcs inserted (not closure edges).
func (c *Graph) NumArcs() int { return c.arcs }

// Reaches reports whether u ⇝ v (u == v counts when present).
func (c *Graph) Reaches(u, v model.TxnID) bool {
	if u == v {
		return c.HasNode(u)
	}
	r, ok := c.reach[u]
	return ok && r.Has(v)
}

// WouldCycleArc reports, in O(1), whether adding from→to would create a
// cycle: true iff to already reaches from.
func (c *Graph) WouldCycleArc(from, to model.TxnID) bool {
	if from == to {
		return true
	}
	return c.Reaches(to, from)
}

// WouldCycleInto reports whether adding arcs tail→head for every tail
// would create a cycle — the basic scheduler's batch shape (all arcs
// enter the acting transaction).
func (c *Graph) WouldCycleInto(head model.TxnID, tails graph.NodeSet) bool {
	for t := range tails {
		if c.WouldCycleArc(t, head) {
			return true
		}
	}
	return false
}

// AddArc inserts from→to and updates the closure. The caller must have
// checked WouldCycleArc first; inserting a cycle-creating arc panics
// (the closure's invariants would silently corrupt otherwise).
func (c *Graph) AddArc(from, to model.TxnID) {
	if from == to {
		return
	}
	c.AddNode(from)
	c.AddNode(to)
	if c.out[from].Has(to) {
		return
	}
	if c.Reaches(to, from) {
		panic("closure: AddArc would create a cycle")
	}
	c.out[from].Add(to)
	c.arcs++
	// Everything reaching from (plus from) now reaches everything to
	// reaches (plus to).
	srcs := make([]model.TxnID, 0, len(c.rreach[from])+1)
	srcs = append(srcs, from)
	for u := range c.rreach[from] {
		srcs = append(srcs, u)
	}
	dsts := make([]model.TxnID, 0, len(c.reach[to])+1)
	dsts = append(dsts, to)
	for v := range c.reach[to] {
		dsts = append(dsts, v)
	}
	for _, u := range srcs {
		for _, v := range dsts {
			if u == v {
				continue
			}
			if !c.reach[u].Has(v) {
				c.reach[u].Add(v)
				c.rreach[v].Add(u)
			}
		}
	}
}

// DeleteNode removes a node the paper's way: plain deletion from the
// closure. Reachability among the remaining nodes is preserved exactly
// (any path through the deleted node was already recorded as closure
// edges between its sources and destinations).
func (c *Graph) DeleteNode(id model.TxnID) {
	if !c.HasNode(id) {
		return
	}
	for v := range c.reach[id] {
		delete(c.rreach[v], id)
	}
	for u := range c.rreach[id] {
		delete(c.reach[u], id)
	}
	// Drop direct-arc bookkeeping.
	c.arcs -= len(c.out[id])
	for u, succs := range c.out {
		if u == id {
			continue
		}
		if succs.Has(id) {
			delete(succs, id)
			c.arcs--
		}
	}
	delete(c.out, id)
	delete(c.reach, id)
	delete(c.rreach, id)
}

// Descendants returns the nodes reachable from id (excluding id).
func (c *Graph) Descendants(id model.TxnID) graph.NodeSet {
	out := make(graph.NodeSet, len(c.reach[id]))
	for v := range c.reach[id] {
		out.Add(v)
	}
	return out
}

// Ancestors returns the nodes reaching id (excluding id).
func (c *Graph) Ancestors(id model.TxnID) graph.NodeSet {
	out := make(graph.NodeSet, len(c.rreach[id]))
	for u := range c.rreach[id] {
		out.Add(u)
	}
	return out
}

// Nodes returns all node IDs, ascending.
func (c *Graph) Nodes() []model.TxnID {
	s := make(graph.NodeSet, len(c.reach))
	for id := range c.reach {
		s.Add(id)
	}
	return s.Sorted()
}
