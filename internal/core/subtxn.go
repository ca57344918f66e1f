// Sub-transactions: the cross-shard half of the paper's scheduler, used by
// the sharded engine's two-phase commit. A cross-partition transaction is
// split into one sub-transaction per participating shard; all sub-nodes
// share the logical TxnID, so folding them back into one logical node (for
// the offline referee) is the identity on IDs.
//
// A sub-transaction takes the paper's three kinds of step. BeginCross is
// its BEGIN, and its reads go through Apply like any read. Its final write
// goes through Apply too, and is its vote: a rejection is the NO vote and
// aborts the sub-node, as a rejected read does; an accepted write is the
// YES vote and holds the sub-node prepared, its arcs in the graph, until
// the decision: CommitPrepared completes it, AbortTxn removes it.
//
// # Cross-ancestor labels
//
// Per-shard acyclicity equals global conflict serializability only while
// shard graphs are disjoint. Sub-transactions break the disjointness: a
// global cycle can thread through two shard graphs, visiting two or more
// cross transactions, with each shard's own graph staying acyclic. To make
// those cycles visible the scheduler maintains, per node, the set of cross
// transactions whose sub-node reaches it within this shard's graph (its
// "cross-ancestor labels"). Labels are sourced at cross sub-nodes and
// propagated eagerly along every arc the moment it is added, so the
// invariant "T labels n iff T's sub-node reaches n here" holds after every
// accepted step (deletion is gated on labels, see below, so reduction never
// breaks the invariant for live labels).
//
// A label names the incarnation that sourced it — its sub-node's arena slot
// and BeginSeq — not the reusable TxnID. It is live while that slot still
// holds that incarnation and the tracker still tracks the transaction, so
// a dead incarnation's leftover labels can never pass for those of a later
// transaction reusing its ID, and nobody ever has to erase them.
//
// Whenever a label src first arrives at the sub-node of a different cross
// transaction dst, a shard-local path src→…→dst has materialized: an
// inter-shard arc candidate src→dst. The scheduler reports it to the
// engine's cross-arc registry (the CrossTracker); if the registry already
// has a path dst→…→src through other shards, accepting the step would
// close a global cycle, and the tracker vetoes it. The scheduler then
// rejects the step exactly like a local cycle: the acting transaction
// aborts, bystanders are untouched.
//
// # Deletion gating
//
// Labels are also why deletion needs an extra gate beyond C1 (which is a
// per-shard condition): reducing a node that carries a live label would
// stop that label from reaching the node's future successors, hiding an
// inter-shard arc from the registry. Sweep.Delete therefore refuses, via
// policyDeletable:
//
//   - sub-transactions of a logical transaction the tracker still tracks
//     (undecided, or decided but possibly still on a future global cycle);
//   - any node carrying a live label.
//
// A prepared-but-undecided sub-transaction needs no gate of its own: it is
// still active, and no policy deletes an active node.
//
// The tracker retires a cross transaction once it is decided and has no
// active ancestor on any participating shard (Lemma 1 lifted to the
// logical transaction: arcs only ever point into acting nodes, so with no
// active ancestor anywhere the logical node's ancestor set is frozen and
// no future cycle can pass through it), or once it aborted, and tells each
// participant's scheduler through Retire; each scheduler hands over the
// committed sub-nodes it finds clean (TakeClean, witness.go). Dead labels
// are pruned lazily and the per-shard C1/C2 machinery applies unchanged
// from then on.
package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/model"
)

// CrossTracker is the engine-side cross-arc registry consulted by a shard
// scheduler running sub-transactions. Implementations must be safe for
// concurrent use by all shards. The tracker is not asked whether it still
// tracks a transaction: it tells each participant's scheduler when it
// stops, through Scheduler.Retire.
type CrossTracker interface {
	// OnCrossReach reports that a path from cross transaction src's
	// sub-node to cross transaction dst's sub-node has materialized in the
	// calling shard's graph. Returning false vetoes the acting step:
	// recording the inter-shard arc src→dst would close a cycle among
	// cross transactions spanning shard graphs.
	OnCrossReach(src, dst model.TxnID) bool
}

// BeginCross begins a sub-transaction of the logical cross transaction
// step.Txn on this shard: a normal BEGIN whose node additionally sources
// its logical ID as a cross-ancestor label, tracked until Retire.
func (s *Scheduler) BeginCross(step model.Step) (Result, error) {
	res, err := s.begin(step)
	if err != nil {
		return res, err
	}
	t := s.txns[step.Txn]
	t.isCross, t.tracked = true, true
	s.numCross++
	return res, nil
}

// Prepared reports whether id is a prepared-but-undecided sub-transaction.
func (s *Scheduler) Prepared(id model.TxnID) bool {
	t, ok := s.txns[id]
	return ok && t.prepared
}

// NumPrepared returns the number of prepared-but-undecided
// sub-transactions.
func (s *Scheduler) NumPrepared() int { return s.numPrepared }

// CommitPrepared is phase two: it completes a prepared sub-transaction
// (the decision was COMMIT), installing its write's current values at the
// position of its vote.
func (s *Scheduler) CommitPrepared(id model.TxnID) (Result, error) {
	t, ok := s.txns[id]
	if !ok || !t.prepared {
		return Result{}, fmt.Errorf("core: CommitPrepared for unprepared transaction T%d", id)
	}
	t.prepared = false
	s.numPrepared--
	return s.complete(t), nil
}

// crossEnabled reports whether any cross bookkeeping can be live on this
// shard; false keeps the purely-local hot path free of label work.
func (s *Scheduler) crossEnabled() bool {
	return s.cfg.Cross != nil && (s.numCross > 0 || s.numLabeled > 0)
}

// label names the cross sub-transaction incarnation that sourced it: the
// arena slot of its sub-node and its BeginSeq there. Slots are recycled but
// sequence numbers are not, so a label outlives its incarnation only as a
// dead value that no later transaction's label can equal, whatever TxnID
// that transaction reuses.
type label struct {
	slot graph.Ref
	seq  int64
}

// sourceOf returns the label the node in slot r sources, if any: its own
// incarnation's, when it is the sub-node of a cross transaction the tracker
// still tracks. A retired transaction can be on no future cycle, so it
// sources nothing.
func (s *Scheduler) sourceOf(r graph.Ref) (label, bool) {
	t := s.bySlot[r]
	if !t.tracked {
		return label{}, false
	}
	return label{slot: r, seq: t.BeginSeq}, true
}

// labelLive reports whether l's incarnation still holds its slot and is
// still tracked. A tracked transaction's sub-node never leaves the graph
// (policyDeletable refuses it, and an abort ends the tracking), so the slot
// test only kills labels the tracker would call dead too, or those of a
// transaction already aborting.
func (s *Scheduler) labelLive(l label) bool {
	t := s.bySlot[l.slot]
	return t != nil && t.BeginSeq == l.seq && t.tracked
}

// labelsOf returns slot r's current label set (possibly containing dead
// labels; prune with pruneLabels).
func (s *Scheduler) labelsOf(r graph.Ref) []label {
	if int(r) < len(s.labels) {
		return s.labels[r]
	}
	return nil
}

// pruneLabels drops dead labels from slot r and returns the surviving set.
func (s *Scheduler) pruneLabels(r graph.Ref) []label {
	ls := s.labelsOf(r)
	if len(ls) == 0 {
		return ls
	}
	kept := ls[:0]
	for _, l := range ls {
		if s.labelLive(l) {
			kept = append(kept, l)
		}
	}
	s.labels[r] = kept
	if len(kept) == 0 {
		s.numLabeled--
	}
	return kept
}

// hasLabel reports whether slot r carries the live label l (or is l's own
// sub-node).
func (s *Scheduler) hasLabel(r graph.Ref, l label) bool {
	if l.slot == r {
		return true
	}
	for _, x := range s.labelsOf(r) {
		if x == l {
			return true
		}
	}
	return false
}

// addLabel records label l on slot r. The caller has already checked
// hasLabel.
func (s *Scheduler) addLabel(r graph.Ref, l label) {
	for int(r) >= len(s.labels) {
		s.labels = append(s.labels, nil)
	}
	if len(s.labels[r]) == 0 {
		s.numLabeled++
	}
	s.labels[r] = append(s.labels[r], l)
}

// crossCollect gathers the live labels arriving at the acting node t from
// the current target set (the tails about to be linked to t) into
// s.inLabels. If t is itself a cross sub-node, every arriving label is an
// inter-shard arc candidate label→t reported to the tracker; a veto makes
// crossCollect return false, and the caller must refuse the step before
// any arc is added.
func (s *Scheduler) crossCollect(t *TxnState) bool {
	s.inLabels = s.inLabels[:0]
	if !s.crossEnabled() {
		return true
	}
	for _, tail := range s.g.Targets() {
		if l, ok := s.sourceOf(tail); ok && !s.arrive(t, l) {
			return false
		}
		for _, l := range s.pruneLabels(tail) {
			if !s.arrive(t, l) {
				return false
			}
		}
	}
	return true
}

// arrive files the live label l in s.inLabels unless the acting node t
// already has it or it already arrived this step. A new arrival at a cross
// sub-node is reported to the tracker; arrive returns false on a veto.
func (s *Scheduler) arrive(t *TxnState, l label) bool {
	if s.hasLabel(t.ref, l) {
		return true
	}
	for _, x := range s.inLabels {
		if x == l {
			return true
		}
	}
	if t.isCross && !s.cfg.Cross.OnCrossReach(s.bySlot[l.slot].ID, t.ID) {
		return false
	}
	s.inLabels = append(s.inLabels, l)
	return true
}

// crossFlood merges s.inLabels into the acting node's label set and pushes
// every newly-arrived label forward along out-arcs (labels are eager: the
// reaches-invariant must hold after the step). Arrival at another cross
// sub-node reports an inter-shard arc; a veto returns false and the caller
// rejects the step. The flood then takes back every label it placed: a
// DFS cut short leaves labeled nodes whose successors lack the label, and a
// later flood of that label would stop at them and never report the
// sub-nodes beyond.
func (s *Scheduler) crossFlood(t *TxnState) bool {
	if len(s.inLabels) == 0 {
		return true
	}
	s.flooded = s.flooded[:0]
	for _, l := range s.inLabels {
		s.floodLabel(t.ref, l)
		src := s.bySlot[l.slot].ID
		// Per-label DFS from t through nodes not yet carrying l.
		s.crossStack = append(s.crossStack[:0], t.ref)
		for len(s.crossStack) > 0 {
			n := s.crossStack[len(s.crossStack)-1]
			s.crossStack = s.crossStack[:len(s.crossStack)-1]
			for _, w := range s.g.OutRefs(n) {
				if s.hasLabel(w, l) {
					continue
				}
				// A sub-node sources its own label; it stores the transit
				// label too so future successors inherit it.
				if c := s.bySlot[w]; c.isCross && !s.cfg.Cross.OnCrossReach(src, c.ID) {
					s.unflood()
					return false
				}
				s.floodLabel(w, l)
				s.crossStack = append(s.crossStack, w)
			}
		}
	}
	return true
}

// floodLabel adds label l to slot r on behalf of crossFlood, noting the
// slot for unflood.
func (s *Scheduler) floodLabel(r graph.Ref, l label) {
	s.addLabel(r, l)
	s.flooded = append(s.flooded, r)
}

// unflood removes the labels of the current crossFlood, newest first: each
// is the last entry of its slot's set when its turn comes.
func (s *Scheduler) unflood() {
	for i := len(s.flooded) - 1; i >= 0; i-- {
		r := s.flooded[i]
		if s.labels[r] = s.labels[r][:len(s.labels[r])-1]; len(s.labels[r]) == 0 {
			s.numLabeled--
		}
	}
}

// clearCross erases slot-level cross bookkeeping when t's node leaves the
// graph (abort, rejection, or deletion).
func (s *Scheduler) clearCross(t *TxnState) {
	if s.cfg.Cross == nil {
		return
	}
	if t.isCross {
		s.numCross--
	}
	if r := t.ref; int(r) < len(s.labels) && len(s.labels[r]) > 0 {
		s.labels[r] = s.labels[r][:0]
		s.numLabeled--
	}
}

// policyDeletable reports whether a deletion policy may remove id: it must
// be a retained completed transaction that passes the gate.
func (s *Scheduler) policyDeletable(id model.TxnID) bool {
	t, ok := s.txns[id]
	if !ok || t.Status != model.StatusCompleted {
		return false
	}
	_, ok = s.gate(t)
	return ok
}

// gate reports whether a deletion policy may remove the completed t: it
// must not be a sub-transaction the tracker still tracks, and must carry no
// live cross labels (reducing a live-labeled node would hide inter-shard
// arcs from the registry). When a label refuses t, w is that label's
// source; when t's own tracking does, w is t.
func (s *Scheduler) gate(t *TxnState) (w *TxnState, ok bool) {
	if s.cfg.Cross == nil {
		return nil, true
	}
	if t.tracked {
		return t, false
	}
	if ls := s.pruneLabels(t.ref); len(ls) > 0 {
		return s.bySlot[ls[0].slot], false
	}
	return nil, true
}
