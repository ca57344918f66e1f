// The sweep's index of refusals: every retained completed transaction a
// sweep refuses is filed on the list of the witness that refused it, and
// stays off the candidate list until that witness releases it.
//
// A refusal names its witness, and the refusal stands until that witness
// changes:
//
//   - C1 fails for Ti (checkC1) with an active tight predecessor Tj that has
//     no completed tight successor accessing some entity of Ti strongly
//     enough. Reduction never adds an active tight predecessor and only
//     removes witnesses (Theorem 3), an accepted read or a prepare only adds
//     arcs into an active node, and a completion's new tight paths add
//     constraints, never witnesses, except to the actives that reach the
//     completing node: so the refusal stands until Tj terminates or gains a
//     completed tight successor — a completion with Tj among its own active
//     tight predecessors.
//   - Lemma 1 fails for Ti (activeAncestor) with an active ancestor A whose
//     path to Ti runs through completed nodes only; deletion splices, so
//     the path stays while A is active.
//   - The cross gate refuses Ti for a live label, or because Ti is a
//     sub-node the tracker still tracks (its own label source). A label only
//     ever dies, and only when its source's incarnation leaves the graph or
//     the tracker retires it (Retire).
//   - A committed sub-node the tracker tracks is owed its clean report
//     (subtxn.go) while it has an active ancestor, by Lemma 1's argument.
//     CommitPrepared files it on the first one it finds; with none, the ID
//     goes into the clean hand-over (TakeClean) and the sub-node onto its
//     own gated list, where the gate would file it.
//
// So a transaction keeps three lists. The C1 and Lemma 1 refusals it blocks
// (held) are released when it terminates (completes, is rejected or
// aborted), and when a completion finds it among the completing node's
// active tight predecessors; the sub-nodes it keeps owed are searched again
// when it terminates, and only then. The gate refusals it sources (gated)
// are released when the tracker retires it. All go when it leaves the
// graph. A sweep examines only the pending transactions: the new
// completions and the released ones, in ascending TxnID as before.
// Everything it skips would have been refused again, so it deletes exactly
// what a rescan of every retained transaction deletes (CheckSkipped checks
// it in the tests).
//
// The lists are intrusive: five pointers and two bytes in TxnState, and
// the scheduler's pending index beside its completed one.
package core

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/model"
)

// refusal is the test that filed a transaction on its witness's list.
type refusal uint8

const (
	// refusedByGate: a live cross label, or the transaction's own tracked
	// sub-node; the witness is the label's source.
	refusedByGate refusal = iota + 1
	// refusedByC1: checkC1's active tight predecessor.
	refusedByC1
	// refusedByAncestor: Lemma 1's active ancestor.
	refusedByAncestor
	// owedByAncestor: the active ancestor keeping a sub-node's report owed.
	owedByAncestor
)

// blocks reports whether a refusal of kind why is on a held list, where a
// completion's walk may release it.
func (why refusal) blocks() bool { return why == refusedByC1 || why == refusedByAncestor }

// hold files the completed transaction t on witness w's list for why: the
// sweeps skip t until w releases it.
func (s *Scheduler) hold(t, w *TxnState, why refusal) {
	s.pending = removeTxn(s.pending, t.ID)
	list := w.list(why)
	t.on, t.why, t.next = w, why, *list
	*list = t
	if why.blocks() {
		s.blocked++
	}
}

// list is t's list of the refusals of kind why it witnesses.
func (t *TxnState) list(why refusal) **TxnState {
	switch why {
	case refusedByGate:
		return &t.gated
	case owedByAncestor:
		return &t.owed
	}
	return &t.held
}

// release returns every transaction on the list to the pending index,
// which only a policy's sweeps drain, and searches again for each owed one.
func (s *Scheduler) release(list **TxnState) {
	for t := *list; t != nil; {
		next := t.next
		t.on, t.next = nil, nil
		if t.why.blocks() {
			s.blocked--
		}
		if t.why == owedByAncestor {
			s.owe(t)
		} else if s.cfg.Policy != nil {
			s.pending = insertTxn(s.pending, t.ID)
		}
		t = next
	}
	*list = nil
}

// owe files the committed sub-node t, which the tracker tracks, for its
// clean report: on the owed list of an active ancestor, or, with none left,
// into the clean hand-over and onto its own gated list.
func (s *Scheduler) owe(t *TxnState) {
	s.stats.Searched++
	if a := s.activeAncestor(t); a != graph.NoRef {
		s.hold(t, s.bySlot[a], owedByAncestor)
		return
	}
	s.clean = append(s.clean, t.ID)
	s.hold(t, t, refusedByGate)
}

// TakeClean appends to buf the committed sub-nodes found with no active
// ancestor since the last call, and forgets them. The engine hands them to
// its tracker at the end of every shard visit.
func (s *Scheduler) TakeClean(buf []model.TxnID) []model.TxnID {
	buf = append(buf, s.clean...)
	s.clean = s.clean[:0]
	return buf
}

// releaseCompleted runs the releases a completion of t causes: the
// refusals t blocked and the sub-nodes it kept owed (it has terminated),
// and the refusals its active tight predecessors block, whose completed
// tight successors now include t. The walk back through completed nodes is
// checkC1's first half, skipped when no held list has anything on it.
func (s *Scheduler) releaseCompleted(t *TxnState) {
	s.release(&t.held)
	s.release(&t.owed)
	if s.blocked == 0 {
		return
	}
	g := s.g
	g.BeginVisit()
	g.VisitRef(t.ref)
	stack := append(s.walkScratch[:0], t.ref)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.InRefs(n) {
			if !g.VisitRef(p) {
				continue
			}
			if pt := s.bySlot[p]; pt.Status == model.StatusActive {
				s.release(&pt.held)
			} else {
				stack = append(stack, p)
			}
		}
	}
	s.walkScratch = stack
}

// leave drops t from the index as its node leaves the graph (rejection,
// abort or deletion): off the list it is filed on and out of the pending
// index, and its own lists released. The caller has already taken the node
// out of the graph, so no search for what it kept owed meets it.
func (s *Scheduler) leave(t *TxnState) {
	if t.on != nil {
		s.unlink(t)
	} else if t.Status == model.StatusCompleted {
		s.pending = removeTxn(s.pending, t.ID)
	}
	s.release(&t.held)
	s.release(&t.gated)
	s.release(&t.owed)
}

// unlink takes t off its witness's list.
func (s *Scheduler) unlink(t *TxnState) {
	for p := t.on.list(t.why); *p != nil; p = &(*p).next {
		if *p == t {
			*p = t.next
			break
		}
	}
	if t.why.blocks() {
		s.blocked--
	}
	t.on, t.next = nil, nil
}

// Retire tells the scheduler that the tracker no longer tracks the cross
// transactions ids: their sub-nodes here, if any, source no live label and
// owe no clean report from now on, and what their tracking kept from the
// sweeps goes back to them, in one automatic sweep. An id with no tracked
// sub-node here is ignored.
//
// The caller hands over retirements before any step that follows them (the
// engine: at the start of the shard's next visit, before any step of the
// visit), and that makes Retire exact: it always reaches the incarnation it
// names, never a later one reusing the ID. A later cross incarnation begins
// only after the tracker let go of this one, so after its retirement; a
// later local one cannot begin while this scheduler still holds the old
// sub-node, and is never tracked anyway.
func (s *Scheduler) Retire(ids ...model.TxnID) {
	released := false
	for _, id := range ids {
		released = s.retire(s.txns[id]) || released
	}
	if released && s.cfg.Policy != nil && !s.cfg.SweepManual {
		sw := &s.autoSweep
		sw.justCompleted = model.NoTxn
		s.sweep(sw)
	}
}

// retire ends t's tracking: its clean report, owed or not yet handed over,
// is dropped, and the gate refusals its label filed, the sub-node's own
// included, go back to the pending index. It reports whether any did.
func (s *Scheduler) retire(t *TxnState) bool {
	if t == nil || !t.tracked {
		return false
	}
	t.tracked = false
	if i := slices.Index(s.clean, t.ID); i >= 0 {
		s.clean = slices.Delete(s.clean, i, i+1)
	}
	if t.on != nil && t.why == owedByAncestor {
		s.unlink(t)
		s.hold(t, t, refusedByGate) // back with the rest, just below
	}
	released := t.gated != nil
	s.release(&t.gated)
	return released
}

// CheckSkipped re-runs, for every retained completed transaction the next
// sweep will skip, the test that filed it — the cross gate, checkC1, Lemma
// 1's ancestor search, or that an owed sub-node is tracked and its witness
// an active ancestor — and reports the first that would now pass: a
// transaction a rescan of every retained transaction could delete and the
// indexed sweep would not. It also reports a retained completed
// transaction that is neither pending nor filed, which no sweep would ever
// examine again. It is for tests, called at the start of a sweep, as a
// wrapping policy can.
func (s *Scheduler) CheckSkipped() error {
	blocked := 0
	for _, id := range s.completed {
		t := s.txns[id]
		if t.on == nil {
			if i := txnPos(s.pending, id); s.cfg.Policy != nil && (i == len(s.pending) || s.pending[i] != id) {
				return fmt.Errorf("core: T%d is retained, neither pending nor filed", id)
			}
			continue
		}
		var stands bool
		switch t.why {
		case refusedByGate:
			_, pass := s.gate(t)
			stands = !pass
		case refusedByC1:
			ok, _, _ := s.checkC1(t)
			stands = !ok
			blocked++
		case refusedByAncestor:
			stands = s.activeAncestor(t) != graph.NoRef
			blocked++
		case owedByAncestor:
			w := t.on
			stands = t.tracked && w.Status == model.StatusActive &&
				s.g.FindAncestorRef(t.ref, func(r graph.Ref) bool { return r == w.ref }) != graph.NoRef
		}
		if !stands {
			return fmt.Errorf("core: T%d skipped on T%d's account, yet its refusal (%d) no longer stands", id, t.on.ID, t.why)
		}
	}
	if blocked != s.blocked {
		return fmt.Errorf("core: %d transactions on held lists, the count says %d", blocked, s.blocked)
	}
	return nil
}

// txnPos returns the index of id in the ascending ids, or where it belongs
// if absent. (Hand-rolled rather than slices.BinarySearch: the hot-path
// lint reads a generic instantiation as interface boxing.)
func txnPos(ids []model.TxnID, id model.TxnID) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insertTxn adds id to the ascending ids unless it is there.
func insertTxn(ids []model.TxnID, id model.TxnID) []model.TxnID {
	i := txnPos(ids, id)
	if i < len(ids) && ids[i] == id {
		return ids
	}
	ids = append(ids, id)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

// removeTxn drops id from the ascending ids if it is there.
func removeTxn(ids []model.TxnID, id model.TxnID) []model.TxnID {
	if i := txnPos(ids, id); i < len(ids) && ids[i] == id {
		return append(ids[:i], ids[i+1:]...)
	}
	return ids
}
