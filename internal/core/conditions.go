// Deletion conditions from the paper: Lemma 1, Theorem 1 (C1), Theorem 4
// (C2). All checkers operate on a StateView plus a graph so that they can
// be evaluated both on the live scheduler and on hypothetical graphs
// during search.
package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/model"
)

// StateView is the read-only information the deletion conditions consume:
// transaction statuses and forgotten-able access sets. The conflict graph
// itself is passed alongside so the same view can be reused across reduced
// copies of the graph.
type StateView interface {
	// Status returns the lifecycle state of id; unknown/deleted
	// transactions report StatusAborted.
	Status(id model.TxnID) model.Status
	// Access returns the per-entity strongest accesses of id (nil if
	// unknown).
	Access(id model.TxnID) model.AccessSet
}

// terminated reports whether id counts as "completed" for tight paths
// (the basic model only uses StatusCompleted, but Finished/Committed from
// the multiple-write model also qualify, letting the checkers be reused).
func terminated(v StateView, id model.TxnID) bool {
	return v.Status(id).Terminated()
}

// ActiveTightPredecessors returns the active transactions Tj that have a
// path to ti in g whose intermediate nodes are all completed — the paper's
// "active tight predecessors". The result is sorted.
func ActiveTightPredecessors(v StateView, g *graph.Graph, ti model.TxnID) []model.TxnID {
	src := g.Ref(ti)
	if src == graph.NoRef {
		return nil
	}
	// The closure is visit stamps, never a set (max-safe sweeps call this
	// per candidate): the walk back through terminated nodes lists the
	// active nodes it stops at.
	var buf [256]graph.Ref
	stack := append(buf[:0], src)
	g.BeginVisit()
	g.VisitRef(src)
	var out []model.TxnID
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.InRefs(n) {
			if !g.VisitRef(p) {
				continue
			}
			id := g.IDOf(p)
			if st := v.Status(id); st == model.StatusActive {
				out = append(out, id)
			} else if st.Terminated() {
				stack = append(stack, p)
			}
		}
	}
	sortTxns(out)
	return out
}

// CompletedTightSuccessors returns the completed transactions Tk reachable
// from tj in g through completed intermediates — the paper's "completed
// tight successors".
func CompletedTightSuccessors(v StateView, g *graph.Graph, tj model.TxnID) graph.NodeSet {
	closure := g.ForwardClosure(tj, func(n model.TxnID) bool { return terminated(v, n) })
	out := make(graph.NodeSet, len(closure))
	for id := range closure {
		if terminated(v, id) {
			out.Add(id)
		}
	}
	return out
}

// HasActivePredecessor reports whether any active transaction reaches id
// (by any path). Lemma 1: a completed transaction with no active
// predecessors will never participate in a future cycle, so it can be
// removed.
func HasActivePredecessor(v StateView, g *graph.Graph, id model.TxnID) bool {
	r := g.Ref(id)
	if r == graph.NoRef {
		return false
	}
	return g.FindAncestorRef(r, func(a graph.Ref) bool {
		return v.Status(g.IDOf(a)) == model.StatusActive
	}) != graph.NoRef
}

// C1Violation is a witness that condition C1 fails: active tight
// predecessor Tj of Ti and entity X accessed by Ti such that no completed
// tight successor of Tj (other than Ti) accesses X at least as strongly as
// Ti does. The witness drives the necessity construction of Theorem 1.
type C1Violation struct {
	Ti model.TxnID
	Tj model.TxnID
	X  model.Entity
	// Strength is Ti's access strength on X (what a witness must match).
	Strength model.Access
}

// Error implements error (a violation explains why deletion is unsafe).
func (v *C1Violation) Error() string {
	return fmt.Sprintf("C1 violated for T%d: active tight predecessor T%d has no completed tight successor accessing entity %d at least as strongly as %v",
		v.Ti, v.Tj, v.X, v.Strength)
}

// CheckC1 evaluates Theorem 1's condition C1 for ti on graph g:
//
//	(C1) For all active tight predecessors Tj of Ti and for all entities x
//	accessed by Ti there is a completed tight successor Tk (≠ Ti) of Tj
//	that accesses x at least as strongly as Ti.
//
// By Theorem 3 the same test characterizes safe deletion on any reduced
// graph, so it may be applied repeatedly. CheckC1 returns false for
// transactions that are not completed (only completed transactions are
// removable).
func CheckC1(v StateView, g *graph.Graph, ti model.TxnID) (bool, *C1Violation) {
	if !g.HasNode(ti) || !terminated(v, ti) {
		return false, &C1Violation{Ti: ti, Tj: model.NoTxn}
	}
	access := v.Access(ti)
	preds := ActiveTightPredecessors(v, g, ti)
	if len(preds) == 0 {
		// Lemma 1 degenerate case: no active tight predecessor means no
		// active predecessor at all can complete a future cycle through
		// ti... not quite — there may be active non-tight predecessors.
		// But C1 quantifies over tight ones only, so it holds vacuously.
		return true, nil
	}
	for _, tj := range preds {
		succs := CompletedTightSuccessors(v, g, tj)
		// strongest[x] = strongest access on x among completed tight
		// successors of tj other than ti.
		strongest := make(map[model.Entity]model.Access)
		for tk := range succs {
			if tk == ti {
				continue
			}
			for x, a := range v.Access(tk) {
				if a > strongest[x] {
					strongest[x] = a
				}
			}
		}
		for x, need := range access {
			if !strongest[x].AtLeastAsStrong(need) {
				return false, &C1Violation{Ti: ti, Tj: tj, X: x, Strength: need}
			}
		}
	}
	return true, nil
}

// C2Violation is a witness that condition C2 fails for a set N: member Ti,
// active tight predecessor Tj, and entity X with no witness outside N.
type C2Violation struct {
	Ti model.TxnID
	Tj model.TxnID
	X  model.Entity
	// Strength is Ti's access strength on X.
	Strength model.Access
}

// Error implements error.
func (v *C2Violation) Error() string {
	return fmt.Sprintf("C2 violated for T%d in N: active tight predecessor T%d has no completed tight successor outside N accessing entity %d at least as strongly as %v",
		v.Ti, v.Tj, v.X, v.Strength)
}

// CheckC2 evaluates Theorem 4's condition C2 for the set N on graph g:
//
//	(C2) For all Ti in N, for all tight active predecessors Tj of Ti and
//	for all entities x accessed by Ti, there is a completed tight
//	successor of Tj NOT IN N which accesses x at least as strongly as Ti.
//
// The tight relations are those of g itself (not of intermediate
// reductions); Theorem 4 proves this characterizes safe simultaneous
// deletion of the whole set.
func CheckC2(v StateView, g *graph.Graph, n graph.NodeSet) (bool, *C2Violation) {
	for ti := range n {
		if !g.HasNode(ti) || !terminated(v, ti) {
			return false, &C2Violation{Ti: ti, Tj: model.NoTxn}
		}
	}
	// Cache completed-tight-successor strength maps per active tight
	// predecessor: several members of N often share predecessors.
	type strengthMap map[model.Entity]model.Access
	cache := make(map[model.TxnID]strengthMap)
	strongestFor := func(tj model.TxnID) strengthMap {
		if m, ok := cache[tj]; ok {
			return m
		}
		succs := CompletedTightSuccessors(v, g, tj)
		m := make(strengthMap)
		for tk := range succs {
			if n.Has(tk) {
				continue // witnesses must lie outside N
			}
			for x, a := range v.Access(tk) {
				if a > m[x] {
					m[x] = a
				}
			}
		}
		cache[tj] = m
		return m
	}
	for ti := range n {
		access := v.Access(ti)
		for _, tj := range ActiveTightPredecessors(v, g, ti) {
			strongest := strongestFor(tj)
			for x, need := range access {
				if !strongest[x].AtLeastAsStrong(need) {
					return false, &C2Violation{Ti: ti, Tj: tj, X: x, Strength: need}
				}
			}
		}
	}
	return true, nil
}

// C1Candidates returns the completed transactions of g that individually
// satisfy C1 — the paper's set M, of which every safely deletable set is a
// subset (Theorem 4 discussion).
func C1Candidates(v StateView, g *graph.Graph, completed []model.TxnID) []model.TxnID {
	var out []model.TxnID
	for _, id := range completed {
		if ok, _ := CheckC1(v, g, id); ok {
			out = append(out, id)
		}
	}
	return out
}

func sortTxns(ids []model.TxnID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
