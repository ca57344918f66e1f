// Sub-transactions: the cross-shard half of the paper's scheduler, used by
// the sharded engine's two-phase commit. A cross-partition transaction is
// split into one sub-transaction per participating shard; all sub-nodes
// share the logical TxnID, so folding them back into one logical node (for
// the offline referee) is the identity on IDs.
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
//   - pinned nodes (prepared-but-undecided sub-transactions);
//   - sub-transactions of a logical transaction the tracker still tracks
//     (undecided, or decided but possibly still on a future global cycle);
//   - any node carrying a live label.
//
// The tracker retires a cross transaction once it is decided and has no
// active ancestor on any participating shard (Lemma 1 lifted to the
// logical transaction: arcs only ever point into acting nodes, so with no
// active ancestor anywhere the logical node's ancestor set is frozen and
// no future cycle can pass through it). Dead labels are pruned lazily and
// the per-shard C1/C2 machinery applies unchanged from then on.
package core

import (
	"fmt"
	"slices"

	"repro/internal/emit"
	"repro/internal/graph"
	"repro/internal/model"
)

// CrossTracker is the engine-side cross-arc registry consulted by a shard
// scheduler running sub-transactions. Implementations must be safe for
// concurrent use by all shards.
type CrossTracker interface {
	// OnCrossReach reports that a path from cross transaction src's
	// sub-node to cross transaction dst's sub-node has materialized in the
	// calling shard's graph. Returning false vetoes the acting step:
	// recording the inter-shard arc src→dst would close a cycle among
	// cross transactions spanning shard graphs.
	OnCrossReach(src, dst model.TxnID) bool
	// LabelLive reports whether src's label is still relevant. Labels of
	// retired cross transactions are pruned lazily.
	LabelLive(src model.TxnID) bool
}

// PrepareVote is a participant's answer to the coordinator's PREPARE.
type PrepareVote uint8

const (
	// VoteYes: the sub-transaction's final-write arcs are locally acyclic
	// and the registry accepted the inter-shard arcs; the node is pinned
	// awaiting the decision.
	VoteYes PrepareVote = iota
	// VoteLocalCycle: the final write would close a cycle in this shard's
	// graph. Nothing was mutated.
	VoteLocalCycle
	// VoteCrossCycle: the registry vetoed an inter-shard arc — committing
	// would close a cycle spanning shard graphs. The sub-node may retain
	// its prepare arcs; the coordinator's ABORT releases them.
	VoteCrossCycle
)

// String implements fmt.Stringer.
func (v PrepareVote) String() string {
	switch v {
	case VoteYes:
		return "yes"
	case VoteLocalCycle:
		return "no-local-cycle"
	case VoteCrossCycle:
		return "no-cross-cycle"
	default:
		return fmt.Sprintf("PrepareVote(%d)", uint8(v))
	}
}

// BeginCross begins a sub-transaction of the logical cross transaction
// step.Txn on this shard: a normal BEGIN whose node additionally sources
// its logical ID as a cross-ancestor label.
func (s *Scheduler) BeginCross(step model.Step) (Result, error) {
	res, err := s.begin(step)
	if err != nil {
		return res, err
	}
	t := s.txns[step.Txn]
	t.isCross = true
	s.ensureCrossCap(t.ref)
	s.crossID[t.ref] = t.ID
	s.numCross++
	return res, nil
}

// Prepared reports whether id is a prepared-but-undecided sub-transaction.
func (s *Scheduler) Prepared(id model.TxnID) bool {
	t, ok := s.txns[id]
	return ok && t.prepared
}

// PrepareFinal is phase one of the final write of a cross sub-transaction:
// it runs Rule 3's cycle test for this shard's slice of the write set and,
// on VoteYes, applies the arcs, records the accesses, and pins the node in
// the prepared state (still active; no further steps are accepted for it).
// The transaction completes only via CommitPrepared, or releases everything
// via AbortTxn. On VoteLocalCycle nothing is mutated; on VoteCrossCycle the
// caller must follow up with AbortTxn (on every participant) — the vetoed
// inter-shard arc was not recorded, but prepare arcs may already be in the
// graph.
func (s *Scheduler) PrepareFinal(step model.Step) (PrepareVote, error) {
	t, err := s.activeTxn(step.Txn)
	if err != nil {
		return VoteLocalCycle, err
	}
	if !t.isCross {
		return VoteLocalCycle, fmt.Errorf("core: PrepareFinal for non-cross transaction T%d", t.ID)
	}
	s.seq++
	g := s.g
	g.ResetTargets()
	for _, x := range step.Entities {
		for _, r := range s.readers[x] {
			if r != t.ref {
				g.MarkTarget(r)
			}
		}
		for _, w := range s.writers[x] {
			if w != t.ref {
				g.MarkTarget(w)
			}
		}
	}
	if g.ReachesAnyTarget(t.ref) {
		s.emit(emit.KindVeto, emit.ClassCycle, t.ID, t.BeginSeq, 0)
		return VoteLocalCycle, nil
	}
	if !s.crossCollect(t) {
		s.emit(emit.KindCrossVeto, emit.ClassCrossCycle, t.ID, t.BeginSeq, 0)
		return VoteCrossCycle, nil
	}
	g.LinkTargetsTo(t.ref)
	// Note the write accesses (arcs and indexes), but leave the
	// current-value bookkeeping (lastWriteSeq/lastWriter) to
	// CommitPrepared: an ABORT decision must not leave Corollary 1's
	// noncurrency test believing these entities were overwritten.
	for _, x := range step.Entities {
		s.noteAccess(t, x, model.WriteAccess)
	}
	t.prepared = true
	t.EndSeq = s.seq
	g.PinRef(t.ref)
	s.stats.Writes++
	s.stats.Accepted++
	vote := VoteYes
	if !s.crossFlood(t) {
		// A label propagated onward from the freshly-linked node closed a
		// registry cycle. Vote no; the coordinator aborts all participants,
		// which removes these arcs.
		vote = VoteCrossCycle
	}
	if vote == VoteYes {
		s.emit(emit.KindPrepare, emit.ClassOK, t.ID, t.BeginSeq, 0)
	} else {
		s.emit(emit.KindCrossVeto, emit.ClassCrossCycle, t.ID, t.BeginSeq, 0)
	}
	var res Result
	s.afterStep(&res, false)
	return vote, nil
}

// CommitPrepared is phase two: it completes a prepared sub-transaction
// (the decision was COMMIT) and releases its pin.
func (s *Scheduler) CommitPrepared(id model.TxnID) (Result, error) {
	t, ok := s.txns[id]
	if !ok || !t.prepared {
		return Result{}, fmt.Errorf("core: CommitPrepared for unprepared transaction T%d", id)
	}
	s.g.UnpinRef(t.ref)
	t.prepared = false
	s.markCompleted(t)
	// The write is now committed: install the current-value bookkeeping at
	// the write's prepare-time position (EndSeq), unless a later write of
	// the entity already landed between vote and decision.
	for x, a := range t.Access {
		if a == model.WriteAccess && t.EndSeq > s.lastWriteSeq[x] {
			s.lastWriteSeq[x] = t.EndSeq
			s.lastWriter[x] = t.ID
		}
	}
	s.numActive--
	s.stats.Completed++
	s.emit(emit.KindCommit, emit.ClassOK, id, t.BeginSeq, 0)
	res := Result{Accepted: true, Aborted: model.NoTxn, CompletedTxn: id}
	s.afterStep(&res, true)
	return res, nil
}

// crossEnabled reports whether any cross bookkeeping can be live on this
// shard; false keeps the purely-local hot path free of label work.
func (s *Scheduler) crossEnabled() bool {
	return s.cfg.Cross != nil && (s.numCross > 0 || s.numLabeled > 0)
}

// ensureCrossCap grows the per-slot cross bookkeeping to cover ref.
func (s *Scheduler) ensureCrossCap(ref graph.Ref) {
	for int(ref) >= len(s.crossID) {
		s.crossID = append(s.crossID, model.NoTxn)
		s.labels = append(s.labels, nil)
	}
}

// crossOf returns the logical cross transaction occupying slot r, or NoTxn.
func (s *Scheduler) crossOf(r graph.Ref) model.TxnID {
	if int(r) < len(s.crossID) {
		return s.crossID[r]
	}
	return model.NoTxn
}

// labelsOf returns slot r's current label set (possibly containing dead
// labels; prune with pruneLabels).
func (s *Scheduler) labelsOf(r graph.Ref) []model.TxnID {
	if int(r) < len(s.labels) {
		return s.labels[r]
	}
	return nil
}

// pruneLabels drops labels of retired cross transactions from slot r and
// returns the surviving set.
func (s *Scheduler) pruneLabels(r graph.Ref) []model.TxnID {
	ls := s.labelsOf(r)
	if len(ls) == 0 {
		return ls
	}
	kept := ls[:0]
	for _, l := range ls {
		if s.cfg.Cross.LabelLive(l) {
			kept = append(kept, l)
		}
	}
	s.labels[r] = kept
	if len(kept) == 0 {
		s.numLabeled--
	}
	return kept
}

// hasLabel reports whether slot r carries label l (or is l's own sub-node).
func (s *Scheduler) hasLabel(r graph.Ref, l model.TxnID) bool {
	if s.crossOf(r) == l {
		return true
	}
	for _, x := range s.labelsOf(r) {
		if x == l {
			return true
		}
	}
	return false
}

// addLabel records label l on slot r, returning whether it was new. The
// caller has already checked hasLabel.
func (s *Scheduler) addLabel(r graph.Ref, l model.TxnID) {
	s.ensureCrossCap(r)
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
	//lint:ignore hotpath-closure seen/arrive never leave this frame, so the compiler stack-allocates them; escape mode (-escape) would flag a 'func literal escapes' regression
	seen := func(l model.TxnID) bool {
		for _, x := range s.inLabels {
			if x == l {
				return true
			}
		}
		return false
	}
	//lint:ignore hotpath-closure non-escaping, as seen above
	arrive := func(l model.TxnID) bool {
		if l == t.ID || seen(l) || s.hasLabel(t.ref, l) {
			return true
		}
		if t.isCross && !s.cfg.Cross.OnCrossReach(l, t.ID) {
			return false
		}
		s.inLabels = append(s.inLabels, l)
		return true
	}
	for _, tail := range s.g.Targets() {
		// A sub-node sources its label only while its transaction is live: a
		// retired one can be on no future cycle, and a label minted after
		// its purge would pass for a later incarnation's.
		if c := s.crossOf(tail); c != model.NoTxn && s.cfg.Cross.LabelLive(c) {
			if !arrive(c) {
				return false
			}
		}
		for _, l := range s.pruneLabels(tail) {
			if !arrive(l) {
				return false
			}
		}
	}
	return true
}

// crossFlood merges s.inLabels into the acting node's label set and pushes
// every newly-arrived label forward along out-arcs (labels are eager: the
// reaches-invariant must hold after the step). Arrival at another cross
// sub-node reports an inter-shard arc; a veto returns false and the caller
// rejects the step, removing the acting node and with it the only new
// paths (labels already spread beyond it become a harmless
// over-approximation).
func (s *Scheduler) crossFlood(t *TxnState) bool {
	if len(s.inLabels) == 0 {
		return true
	}
	for _, l := range s.inLabels {
		s.addLabel(t.ref, l)
		// Per-label DFS from t through nodes not yet carrying l.
		s.crossStack = append(s.crossStack[:0], t.ref)
		for len(s.crossStack) > 0 {
			n := s.crossStack[len(s.crossStack)-1]
			s.crossStack = s.crossStack[:len(s.crossStack)-1]
			for _, w := range s.g.OutRefs(n) {
				if s.hasLabel(w, l) {
					continue
				}
				if c := s.crossOf(w); c != model.NoTxn {
					if c != l && !s.cfg.Cross.OnCrossReach(l, c) {
						return false
					}
					// A sub-node sources its own ID; store the transit label
					// too so future successors inherit it.
				}
				s.addLabel(w, l)
				s.crossStack = append(s.crossStack, w)
			}
		}
	}
	return true
}

// clearCross erases slot-level cross bookkeeping when t's node leaves the
// graph (abort, rejection, or deletion).
func (s *Scheduler) clearCross(t *TxnState) {
	if s.cfg.Cross == nil {
		return
	}
	r := t.ref
	if int(r) >= len(s.crossID) {
		return
	}
	if s.crossID[r] != model.NoTxn {
		s.crossID[r] = model.NoTxn
		s.numCross--
	}
	if len(s.labels[r]) > 0 {
		s.labels[r] = s.labels[r][:0]
		s.numLabeled--
	}
}

// PurgeLabels erases every stored occurrence of the labels ids from this
// shard. The engine calls it for the dead incarnations of dropped and
// retired cross transactions: left in place, their labels would be
// indistinguishable from those of a later transaction reusing the TxnID and
// stop crossFlood's DFS early, hiding real reach-paths from the registry.
// (A dead transaction sources no new labels — see crossCollect — so once
// purged its ID stays clean until it is registered again.)
func (s *Scheduler) PurgeLabels(ids ...model.TxnID) {
	if s.numLabeled == 0 || len(ids) == 0 {
		return
	}
	for r := range s.labels {
		ls := s.labels[r]
		if len(ls) == 0 {
			continue
		}
		kept := ls[:0]
		for _, l := range ls {
			if !slices.Contains(ids, l) {
				kept = append(kept, l)
			}
		}
		s.labels[r] = kept
		if len(kept) == 0 {
			s.numLabeled--
		}
	}
}

// policyDeletable reports whether a deletion policy may remove id: it must
// be a retained completed transaction, not pinned, not a sub-transaction
// the tracker still tracks, and must carry no live cross labels (reducing
// a live-labeled node would hide inter-shard arcs from the registry).
func (s *Scheduler) policyDeletable(id model.TxnID) bool {
	t, ok := s.txns[id]
	if !ok || t.Status != model.StatusCompleted {
		return false
	}
	if s.g.PinnedRef(t.ref) {
		return false
	}
	if s.cfg.Cross == nil {
		return true
	}
	if t.isCross && s.cfg.Cross.LabelLive(t.ID) {
		return false
	}
	return len(s.pruneLabels(t.ref)) == 0
}
