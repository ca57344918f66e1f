// Deletion policies (the paper's Section 4: "A deletion policy P is an
// algorithm which given reduced graph G outputs a set of completed nodes to
// be deleted. ... Call a deletion policy correct if the scheduling
// algorithm accepts only CSR schedules.")
//
// By Theorem 2 a policy is correct iff it performs only safe deletions; by
// Theorems 3 and 4, safety is exactly C1 for single deletions (repeatable
// on reduced graphs) and C2 for sets. The policies here are:
//
//   - NoGC           — never delete (the reference full scheduler).
//   - Lemma1Policy   — delete completed nodes with no active predecessor.
//   - GreedyC1       — repeatedly delete any node satisfying C1 (safe by
//     Theorem 3; maximal by inclusion but not maximum).
//   - MaxSafeExact   — exact maximum safe subset via branch-and-bound over
//     C1 candidates with C2 feasibility (Theorem 5 problem).
//   - NoncurrentSafe — Corollary 1 made compositional: delete noncurrent
//     transactions whose current writers are still present.
//   - CommitGC       — UNSAFE negative control: delete at completion, the
//     locking-scheduler habit the introduction warns about.
//   - NoncurrentNaive— UNSAFE negative control: Corollary 1 applied
//     verbatim to reduced graphs (the Example 1 trap).
package core

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/model"
)

// Policy decides which completed transactions to delete after a step. The
// scheduler invokes Sweep after completions and aborts; the policy performs
// deletions through the Sweep handle.
type Policy interface {
	// Name identifies the policy in experiment tables.
	Name() string
	// Sweep performs zero or more deletions via sw.
	Sweep(sw *Sweep)
}

// PolicyByName is the one place the built-in correct policies are known by
// name. It returns a constructor, not a value: each scheduler (each shard
// of an engine) takes its own instance. "nogc" names the nil constructor —
// a nil Config.Policy never deletes and never sweeps. The UNSAFE negative
// controls are deliberately not listed. Unknown names report false.
func PolicyByName(name string) (func() Policy, bool) {
	switch name {
	case "nogc":
		return nil, true
	case "lemma1":
		return func() Policy { return Lemma1Policy{} }, true
	case "greedy-c1":
		return func() Policy { return GreedyC1{} }, true
	case "greedy-c1-newest":
		return func() Policy { return GreedyC1{NewestFirst: true} }, true
	case "noncurrent-safe":
		return func() Policy { return NoncurrentSafe{} }, true
	case "max-safe":
		return func() Policy { return MaxSafeExact{} }, true
	}
	return nil, false
}

// Sweep is the mutating handle a Policy receives. It records what was
// deleted so the scheduler can report it in the step Result.
type Sweep struct {
	s             *Scheduler
	justCompleted model.TxnID
	deleted       []model.TxnID
}

// Scheduler returns the underlying scheduler (read via its query methods).
func (sw *Sweep) Scheduler() *Scheduler { return sw.s }

// JustCompleted returns the transaction completed by the triggering step,
// or NoTxn.
func (sw *Sweep) JustCompleted() model.TxnID { return sw.justCompleted }

// Completed returns the retained completed transactions that a policy may
// consider for deletion, ascending. Under a cross-shard engine this
// excludes sub-transactions whose logical transaction the cross-arc
// registry still tracks and nodes carrying live cross-ancestor labels —
// deleting either could hide an inter-shard arc (see subtxn.go). Purely
// local schedulers get the plain completed set.
// The returned slice is backed by scheduler scratch: it is valid until the
// next Completed call (each deletion round of a policy loop rebuilds it),
// and policies may reorder it in place.
func (sw *Sweep) Completed() []model.TxnID {
	return sw.take(sw.s.completed, false)
}

// pending is Completed for the policies that file what they refuse
// (GreedyC1, Lemma1Policy): only the retained completed transactions that
// no refusal still stands against (witness.go), ascending. The gate files
// what it refuses on the label source's account.
func (sw *Sweep) pending() []model.TxnID {
	return sw.take(sw.s.pending, true)
}

// take copies ids into the candidate scratch and drops what the gate
// refuses, filing it on its witness when file is set.
func (sw *Sweep) take(ids []model.TxnID, file bool) []model.TxnID {
	s := sw.s
	s.compScratch = append(s.compScratch[:0], ids...)
	ids = s.compScratch
	s.stats.Examined += int64(len(ids))
	// Fast path: a shard that has never seen a cross transaction (no
	// sub-nodes, no labels) filters nothing, even when a tracker is
	// configured — the cross-free GC path stays identical to a plain local
	// scheduler's.
	if !s.crossEnabled() {
		return ids
	}
	kept := ids[:0]
	for _, id := range ids {
		t := s.txns[id]
		if w, ok := s.gate(t); ok {
			kept = append(kept, id)
		} else if file {
			s.hold(t, w, refusedByGate)
		}
	}
	return kept
}

// CheckC1 tests condition C1 for id on the current graph.
func (sw *Sweep) CheckC1(id model.TxnID) bool {
	return sw.s.c1Holds(id)
}

// CheckC2 tests condition C2 for a set on the current graph.
func (sw *Sweep) CheckC2(set graph.NodeSet) bool {
	ok, _ := sw.s.CheckC2(set)
	return ok
}

// Delete removes id unconditionally with respect to C1/C2 (the policy is
// responsible for that safety), but never a node the engine has gated
// (registry-tracked or live-labeled — see Completed). It returns
// false if id is not a deletable retained completed transaction.
func (sw *Sweep) Delete(id model.TxnID) bool {
	if !sw.s.policyDeletable(id) {
		return false
	}
	if err := sw.s.deleteTxn(id); err != nil {
		return false
	}
	sw.deleted = append(sw.deleted, id)
	return true
}

// DeleteSet removes every member of set, in ascending order, returning how
// many were actually deleted (gated members are skipped).
func (sw *Sweep) DeleteSet(set graph.NodeSet) int {
	n := 0
	for _, id := range set.Sorted() {
		if sw.Delete(id) {
			n++
		}
	}
	return n
}

// Deleted returns the transactions deleted so far in this sweep.
func (sw *Sweep) Deleted() []model.TxnID { return sw.deleted }

// ---------------------------------------------------------------------------

// NoGC never deletes; it is the paper's original conflict scheduler and
// the reference side of every equivalence oracle.
type NoGC struct{}

// Name implements Policy.
func (NoGC) Name() string { return "nogc" }

// Sweep implements Policy.
func (NoGC) Sweep(*Sweep) {}

// ---------------------------------------------------------------------------

// Lemma1Policy deletes completed transactions that have no active
// predecessor at all (Lemma 1). It is strictly weaker than C1 (Example 1's
// T2 has an active predecessor yet is C1-deletable) but very cheap. One
// pass is a fixpoint: deletion splices arcs, so a candidate with an active
// ancestor keeps it; the sweep files such a candidate on that ancestor.
type Lemma1Policy struct{}

// Name implements Policy.
func (Lemma1Policy) Name() string { return "lemma1" }

// Sweep implements Policy.
func (Lemma1Policy) Sweep(sw *Sweep) {
	s := sw.s
	for _, id := range sw.pending() {
		t := s.txns[id]
		if a := s.activeAncestor(t); a != graph.NoRef {
			s.hold(t, s.bySlot[a], refusedByAncestor)
		} else {
			sw.Delete(id)
		}
	}
}

// ---------------------------------------------------------------------------

// GreedyC1 deletes every completed transaction satisfying C1 on the
// successively reduced graph. Theorem 3 guarantees each individual deletion
// is safe, hence (Theorem 2) the policy is correct. One pass is a fixpoint:
// a deletion only removes witnesses and never adds an active tight
// predecessor, so a candidate C1 refuses stays refused for the rest of the
// sweep; the sweep files it on the active tight predecessor checkC1 named.
// The result is maximal by inclusion; Theorem 5 shows finding the maximum
// is NP-complete, so greedy is the practical default.
//
// Order controls the scan order; OldestFirst (default) favors deleting
// older transactions, which empirically keeps the graph smaller because
// old nodes accumulate predecessor arcs.
type GreedyC1 struct {
	// NewestFirst scans candidates newest-first instead of oldest-first.
	NewestFirst bool
}

// Name implements Policy.
func (p GreedyC1) Name() string {
	if p.NewestFirst {
		return "greedy-c1-newest"
	}
	return "greedy-c1"
}

// Sweep implements Policy.
func (p GreedyC1) Sweep(sw *Sweep) {
	s := sw.s
	ids := sw.pending()
	if p.NewestFirst {
		slices.Reverse(ids)
	}
	for _, id := range ids {
		t := s.txns[id]
		if ok, tj, _ := s.checkC1(t); ok {
			sw.Delete(id)
		} else {
			s.hold(t, s.bySlot[tj], refusedByC1)
		}
	}
}

// ---------------------------------------------------------------------------

// MaxSafeExact computes, at each sweep, a maximum-size safely deletable
// subset (the NP-complete problem of Theorem 5) by branch-and-bound over
// the C1 candidate set with C2 feasibility, then deletes it. Budget bounds
// the search nodes; on exhaustion it falls back to the best subset found
// (at least as large as greedy's, which seeds the incumbent).
type MaxSafeExact struct {
	// Budget bounds branch-and-bound nodes; 0 means DefaultMaxSafeBudget.
	Budget int
}

// Name implements Policy.
func (MaxSafeExact) Name() string { return "max-safe" }

// Sweep implements Policy.
func (p MaxSafeExact) Sweep(sw *Sweep) {
	s := sw.s
	for {
		best := MaxSafeSet(s, s.g, sw.Completed(), p.Budget)
		if len(best) == 0 || sw.DeleteSet(best) == 0 {
			return
		}
	}
}

// ---------------------------------------------------------------------------

// NoncurrentSafe deletes, at each sweep, every noncurrent completed
// transaction whose entities' current writers are all still present in the
// graph (and distinct from it). Presence of the current writer restores
// Corollary 1's witness on reduced graphs: for each entity x of Ti the
// last writer Tk is completed, conflicts with Ti (so the reduced graph has
// the arc Ti→Tk), and hence is a completed tight successor of every active
// tight predecessor of Ti. Because current writers are themselves current,
// they are never in the deleted batch, satisfying C2's outside-N
// requirement.
type NoncurrentSafe struct{}

// Name implements Policy.
func (NoncurrentSafe) Name() string { return "noncurrent-safe" }

// Sweep implements Policy.
func (NoncurrentSafe) Sweep(sw *Sweep) {
	s := sw.s
	for {
		batch := make(graph.NodeSet)
		for _, id := range sw.Completed() {
			if s.Noncurrent(id) && s.CurrentWriterPresent(id) {
				batch.Add(id)
			}
		}
		if len(batch) == 0 || sw.DeleteSet(batch) == 0 {
			return
		}
	}
}

// ---------------------------------------------------------------------------

// CommitGC is the UNSAFE policy that closes transactions at commit time,
// which is correct for locking schedulers but wrong for conflict-graph
// schedulers (paper, Section 1). It exists as a negative control: the
// equivalence oracle must catch it.
type CommitGC struct{}

// Name implements Policy.
func (CommitGC) Name() string { return "commit-gc-UNSAFE" }

// Sweep implements Policy.
func (CommitGC) Sweep(sw *Sweep) {
	if id := sw.JustCompleted(); id != model.NoTxn {
		sw.Delete(id)
	}
}

// ---------------------------------------------------------------------------

// Chain runs several policies in order within one sweep. It is how the
// paper's Example 1 trap is reproduced: Chain{GreedyC1{NewestFirst:true},
// NoncurrentNaive{}} first C1-deletes the current transaction T3 and then
// blindly noncurrent-deletes T2, whose witness is now gone — an unsafe
// deletion the oracle catches. Chain{GreedyC1{...}, NoncurrentSafe{}} is
// safe: the presence guard refuses T2.
type Chain []Policy

// Name implements Policy.
func (c Chain) Name() string {
	name := "chain("
	for i, p := range c {
		if i > 0 {
			name += "+"
		}
		name += p.Name()
	}
	return name + ")"
}

// Sweep implements Policy.
func (c Chain) Sweep(sw *Sweep) {
	for _, p := range c {
		p.Sweep(sw)
	}
}

// ---------------------------------------------------------------------------

// NoncurrentNaive applies Corollary 1 verbatim to whatever (possibly
// reduced) graph it is given: it deletes every noncurrent completed
// transaction without checking that the current writers are still present.
//
// Run STANDALONE this is actually safe — the policy never deletes a
// current transaction, so each entity's last writer (the corollary's
// witness) survives every batch, which re-establishes C2 on the reduced
// graph (experiment E10 verifies this empirically). But composed after a
// policy that can delete current transactions (GreedyC1 can), it performs
// exactly the unsafe deletion of the paper's Example 1 — which is why the
// paper stresses that Corollary 1 is a conflict-graph rule, not a
// reduced-graph rule. Treat it as a pedagogical control, not a policy.
type NoncurrentNaive struct{}

// Name implements Policy.
func (NoncurrentNaive) Name() string { return "noncurrent-naive-UNSAFE" }

// Sweep implements Policy.
func (NoncurrentNaive) Sweep(sw *Sweep) {
	s := sw.s
	for {
		batch := make(graph.NodeSet)
		for _, id := range sw.Completed() {
			if s.Noncurrent(id) {
				batch.Add(id)
			}
		}
		if len(batch) == 0 || sw.DeleteSet(batch) == 0 {
			return
		}
	}
}
