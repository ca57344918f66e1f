// State export/restore: the durability layer's view of a scheduler.
//
// A snapshot is NOT a step log. Deletion (the paper's whole point) splices
// predecessor×successor arcs through removed nodes, so the retained graph
// is not reconstructible by replaying the retained transactions' steps —
// the splice arcs name conflicts whose witnesses are gone. ExportState
// therefore captures the graph as it stands (nodes and arcs), the
// per-transaction access bookkeeping Corollary 1 needs (access kinds and
// sequence numbers) and the per-entity current-value map (which may name
// deleted transactions — exactly the non-compositionality the paper
// studies), all in deterministic order. A prepared sub-transaction is
// one flag on its record. Cross-ancestor labels are left out: the engine's
// recovery registers no recovered cross transaction with its registry and
// retires every one before the shards go live, so every label a snapshot
// could carry would be dead by then.
//
// RestoreScheduler inverts it. The entity records' reader and writer lists
// are rebuilt from the access sets: a transaction whose retained access
// level is WriteAccess re-lists as a writer only, which is conflict-equivalent
// — Rules 2 and 3 consult writers for every conflict a read entry could
// have witnessed, and the arcs those conflicts produced are restored
// verbatim from the arc list anyway.
package core

import (
	"fmt"
	"slices"

	"repro/internal/emit"
	"repro/internal/graph"
	"repro/internal/model"
)

// AccessSnap is one entity's retained access record of a transaction.
type AccessSnap struct {
	Entity model.Entity
	Access model.Access
	// Seq is the sequence number of the transaction's latest access to
	// Entity (Corollary 1's currency input).
	Seq int64
}

// TxnSnap is the exported record of one retained transaction (active or
// completed).
type TxnSnap struct {
	ID       model.TxnID
	Status   model.Status
	BeginSeq int64
	EndSeq   int64
	IsCross  bool
	Prepared bool
	Access   []AccessSnap
}

// EntityWrite is one entry of the schedule-level current-value map.
// Writer may name a transaction that has since been deleted.
type EntityWrite struct {
	Entity model.Entity
	Seq    int64
	Writer model.TxnID
}

// SchedulerState is everything a scheduler needs to resume exactly where
// it stopped: the retained transactions, the (reduced) conflict graph's
// arcs, the current-value map, and the step counter.
type SchedulerState struct {
	Seq    int64
	Txns   []TxnSnap
	Arcs   []graph.Arc
	Writes []EntityWrite
}

// ExportState captures the scheduler's full retained state in
// deterministic order (transactions by BeginSeq, accesses and writes by
// entity, arcs by the graph's canonical order).
func (s *Scheduler) ExportState() SchedulerState {
	st := SchedulerState{
		Seq:  s.seq,
		Txns: make([]TxnSnap, 0, len(s.txns)),
		Arcs: s.g.Arcs(),
	}
	for id, t := range s.txns {
		snap := TxnSnap{
			ID:       id,
			Status:   t.Status,
			BeginSeq: t.BeginSeq,
			EndSeq:   t.EndSeq,
			IsCross:  t.isCross,
			Prepared: t.prepared,
			Access:   make([]AccessSnap, 0, len(t.acc)),
		}
		for _, ac := range t.acc {
			snap.Access = append(snap.Access, AccessSnap{Entity: ac.x, Access: ac.a, Seq: ac.seq})
		}
		slices.SortFunc(snap.Access, func(a, b AccessSnap) int { return int(a.Entity - b.Entity) })
		st.Txns = append(st.Txns, snap)
	}
	slices.SortFunc(st.Txns, func(a, b TxnSnap) int {
		switch {
		case a.BeginSeq < b.BeginSeq:
			return -1
		case a.BeginSeq > b.BeginSeq:
			return 1
		default:
			return 0
		}
	})
	st.Writes = make([]EntityWrite, 0, len(s.ents.ids))
	for x, r := range s.ents.ids {
		if e := &s.ents.recs[r]; e.written() {
			st.Writes = append(st.Writes, EntityWrite{Entity: x, Seq: e.lastSeq, Writer: e.lastWriter})
		}
	}
	slices.SortFunc(st.Writes, func(a, b EntityWrite) int { return int(a.Entity - b.Entity) })
	return st
}

// RestoreScheduler builds a scheduler from an exported state. The restored
// scheduler continues the original's sequence numbering, so noncurrency
// comparisons and incarnation stamps stay order-isomorphic with the
// pre-crash run.
func RestoreScheduler(cfg Config, st SchedulerState) (*Scheduler, error) {
	s := NewScheduler(cfg)
	s.seq = st.Seq
	for i := range st.Txns {
		snap := &st.Txns[i]
		if _, dup := s.txns[snap.ID]; dup {
			return nil, fmt.Errorf("core: restore: duplicate transaction T%d", snap.ID)
		}
		if snap.Status != model.StatusActive && snap.Status != model.StatusCompleted {
			return nil, fmt.Errorf("core: restore: transaction T%d has non-retainable status %v", snap.ID, snap.Status)
		}
		if snap.BeginSeq > st.Seq || snap.EndSeq > st.Seq {
			return nil, fmt.Errorf("core: restore: transaction T%d sequence numbers exceed scheduler seq %d", snap.ID, st.Seq)
		}
		ref := s.g.AddNodeRef(snap.ID)
		t := &TxnState{
			ID:       snap.ID,
			Status:   snap.Status,
			acc:      make([]access, 0, len(snap.Access)),
			BeginSeq: snap.BeginSeq,
			EndSeq:   snap.EndSeq,
			isCross:  snap.IsCross,
			tracked:  snap.IsCross,
			prepared: snap.Prepared,
		}
		for _, a := range snap.Access {
			if t.find(a.Entity) >= 0 {
				return nil, fmt.Errorf("core: restore: transaction T%d lists entity %d twice", snap.ID, a.Entity)
			}
			r := s.ents.file(a.Entity)
			e := &s.ents.recs[r]
			reader := a.Access != model.WriteAccess
			if reader {
				e.readers = append(e.readers, ref)
			} else {
				e.writers = append(e.writers, ref)
			}
			t.acc = append(t.acc, access{x: a.Entity, rec: r, a: a.Access, reader: reader, seq: a.Seq})
		}
		s.txns[snap.ID] = t
		s.bindSlot(t, ref)
		switch snap.Status {
		case model.StatusActive:
			s.numActive++
		case model.StatusCompleted:
			s.markCompleted(t)
		}
		if snap.Prepared {
			if snap.Status != model.StatusActive {
				return nil, fmt.Errorf("core: restore: prepared transaction T%d is not active", snap.ID)
			}
			s.numPrepared++
		}
		if snap.IsCross {
			s.numCross++
		}
	}
	for _, a := range st.Arcs {
		if s.g.Ref(a.From) == graph.NoRef || s.g.Ref(a.To) == graph.NoRef {
			return nil, fmt.Errorf("core: restore: arc T%d→T%d names a missing node", a.From, a.To)
		}
		s.g.AddArc(a.From, a.To)
	}
	if !s.g.Acyclic() {
		return nil, fmt.Errorf("core: restore: restored conflict graph is cyclic")
	}
	for _, w := range st.Writes {
		if w.Seq < 1 || w.Seq > st.Seq {
			return nil, fmt.Errorf("core: restore: write seq %d for entity %d outside [1, scheduler seq %d]", w.Seq, w.Entity, st.Seq)
		}
		e := &s.ents.recs[s.ents.file(w.Entity)]
		e.lastSeq, e.lastWriter = w.Seq, w.Writer
	}
	return s, nil
}

// SetSweepManual switches the automatic post-step sweeps off (true) or on
// (Config.SweepManual). Recovery replays the WAL tail and resolves what it
// left undecided without sweeping, then switches them on here before the
// shard goes live.
func (s *Scheduler) SetSweepManual(manual bool) { s.cfg.SweepManual = manual }

// SetEmitter swaps the lifecycle-event emitter. Recovery replays with a
// nil emitter — replayed steps already happened, so re-emitting them would
// double-count every metric — and installs the live emitter here before
// the shard goes live.
func (s *Scheduler) SetEmitter(em emit.Emitter) { s.cfg.Emitter = em }
