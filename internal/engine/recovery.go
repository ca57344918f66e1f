// Crash recovery: rebuilding an engine from the durability layer.
//
// Each shard's scheduler is reconstructed in two layers — the latest
// checkpoint (a state export, carrying the splice arcs deletion left
// behind) and the WAL tail replayed on top of it. Replay runs under a
// permissive cross tracker and a nil emitter: only accepted records were
// journaled, so every veto already did its work before the crash, and
// re-emitting replayed steps would double-count every metric. The live
// registry and emitter are installed once replay ends.
//
// After replay the engine resolves what the crash interrupted:
//
//   - Local active transactions are orphans — their client sessions died
//     with the process — and are aborted.
//   - A cross-partition transaction with durable COMMIT evidence (a
//     RecCommit in some shard's tail, or a completed sub-transaction in
//     some checkpoint) finishes committing on every lagging participant:
//     the coordinator decided, so the decision stands.
//   - A cross transaction prepared on EVERY participant but with no commit
//     evidence is in doubt, and is presumed aborted: the engine itself
//     was the coordinator, so the crash lost the coordinator undecided,
//     and presumed abort is the standard resolution.
//   - Anything else — a cross transaction missing a durable YES vote
//     somewhere — aborts everywhere.
//
// Every resolution is journaled and synced before Open returns, so a crash
// during (or right after) recovery re-resolves to the same state.
//
//lint:file-ignore shardowned recovery runs on Open's goroutine strictly before Open returns the engine, so it owns every shard's state by happens-before (whoever later runs a shard received the engine through that return)
package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/emit"
	"repro/internal/model"
	"repro/internal/store"
)

// RecoveryReport summarizes what Open recovered from Config.Store.
type RecoveryReport struct {
	// Shards is the number of shards opened.
	Shards int
	// CheckpointSeqs is the LSN each shard's checkpoint covered at
	// recovery, indexed by shard (0: no checkpoint yet; nil without a
	// Store).
	CheckpointSeqs []uint64
	// RecordsReplayed counts WAL tail records re-applied on top of the
	// checkpoints, summed over shards.
	RecordsReplayed int
	// TxnsRetained counts transactions retained after resolution, summed
	// over shards (a cross transaction counts once per participant).
	TxnsRetained int
	// OrphansAborted counts local active transactions aborted because
	// their client sessions did not survive the crash.
	OrphansAborted int
	// CrossCommitted counts cross transactions whose durable COMMIT
	// decision was completed on lagging participants.
	CrossCommitted int
	// CrossAborted counts cross transactions aborted during recovery
	// (undecided, partially prepared, or presumed abort).
	CrossAborted int
}

// recoveryTracker is the cross tracker WAL replay runs under: every reach
// is admitted and every label stays live. Only accepted records were
// journaled — the vetoes already happened — so replay must never re-veto.
type recoveryTracker struct{}

func (recoveryTracker) OnCrossReach(src, dst model.TxnID) bool { return true }
func (recoveryTracker) LabelLive(src model.TxnID) bool         { return true }

// subState is one shard's view of a recovered cross transaction.
type subState struct {
	shard    int
	active   bool
	prepared bool
}

// recover builds every shard's scheduler — fresh without a Store,
// checkpoint+tail otherwise — and resolves interrupted transactions. It
// runs inside Open, before any submission can run a shard, so scheduler
// access is single-threaded.
func (e *Engine) recover() (*RecoveryReport, error) {
	rep := &RecoveryReport{Shards: len(e.shards)}
	if e.cfg.Store == nil {
		for i, sh := range e.shards {
			sh.sched = core.NewScheduler(e.schedConfig(i, e.liveTracker(), emit.ForShard(e.cfg.Bus, i)))
		}
		return rep, nil
	}
	rep.CheckpointSeqs = make([]uint64, len(e.shards))
	// commitEvidence marks cross transactions with a durable COMMIT
	// decision visible from some shard's tail.
	commitEvidence := make(map[model.TxnID]bool)
	for i, sh := range e.shards {
		state, err := sh.jr.load()
		if err != nil {
			return nil, fmt.Errorf("engine: recover shard %d: %w", i, err)
		}
		rep.CheckpointSeqs[i] = state.CoveredLSN
		replayCfg := e.schedConfig(i, recoveryTracker{}, nil)
		if state.Snapshot != nil {
			snap, err := store.DecodeSnapshot(state.Snapshot)
			if err != nil {
				return nil, fmt.Errorf("engine: recover shard %d: checkpoint: %w", i, err)
			}
			sh.sched, err = core.RestoreScheduler(replayCfg, snap)
			if err != nil {
				return nil, fmt.Errorf("engine: recover shard %d: checkpoint: %v: %w", i, err, store.ErrCorruptWAL)
			}
		} else {
			sh.sched = core.NewScheduler(replayCfg)
		}
		for _, r := range state.Tail {
			if err := replayRecord(sh.sched, r); err != nil {
				return nil, fmt.Errorf("engine: recover shard %d: replay LSN %d (%v): %w", i, r.LSN, err, store.ErrCorruptWAL)
			}
			if r.Kind == store.RecCommit {
				commitEvidence[r.Txn] = true
			}
			rep.RecordsReplayed++
		}
	}

	// Classify what survived. A completed cross sub-transaction is commit
	// evidence too: CommitPrepared only ever runs after the decision.
	cross := make(map[model.TxnID][]subState)
	var crossOrder []model.TxnID // deterministic resolution order
	orphans := make([][]model.TxnID, len(e.shards))
	for i, sh := range e.shards {
		st := sh.sched.ExportState()
		for _, t := range st.Txns {
			if t.IsCross {
				if _, seen := cross[t.ID]; !seen {
					crossOrder = append(crossOrder, t.ID)
				}
				cross[t.ID] = append(cross[t.ID], subState{
					shard:    i,
					active:   t.Status == model.StatusActive,
					prepared: t.Prepared,
				})
				if t.Status == model.StatusCompleted {
					commitEvidence[t.ID] = true
				}
			} else if t.Status == model.StatusActive {
				orphans[i] = append(orphans[i], t.ID)
			}
		}
	}

	// Orphaned local actives: their sessions are gone; abort.
	for i, ids := range orphans {
		sh := e.shards[i]
		for _, id := range ids {
			if sh.sched.AbortTxn(id) == nil {
				sh.jr.record(store.RecAbort, id, 0, nil)
				rep.OrphansAborted++
			}
		}
	}

	// Cross transactions: finish commits, abort the rest.
	for _, id := range crossOrder {
		subs := cross[id]
		if commitEvidence[id] {
			for _, s := range subs {
				if !s.active {
					continue
				}
				sh := e.shards[s.shard]
				if s.prepared {
					if err := sh.jr.record(store.RecCommit, id, 0, nil); err != nil {
						return nil, fmt.Errorf("engine: recover shard %d: journal commit T%d: %w", s.shard, id, err)
					}
					if _, err := sh.sched.CommitPrepared(id); err != nil {
						return nil, fmt.Errorf("engine: recover shard %d: commit T%d: %v: %w", s.shard, id, err, store.ErrCorruptWAL)
					}
				} else if sh.sched.AbortTxn(id) == nil {
					// A committed transaction with an unprepared sub cannot
					// happen under the protocol (votes are synced before the
					// decision); shed the stray sub defensively.
					sh.jr.record(store.RecAbort, id, 0, nil)
				}
			}
			rep.CrossCommitted++
			continue
		}
		// Undecided (presumed abort), partially prepared, or no active sub
		// left at all. Aborting an already-gone sub is a no-op.
		aborted := false
		for _, s := range subs {
			sh := e.shards[s.shard]
			if sh.sched.AbortTxn(id) == nil {
				sh.jr.record(store.RecAbort, id, 0, nil)
				aborted = true
			}
		}
		if aborted {
			rep.CrossAborted++
		}
	}

	// Make the resolutions durable, count what is retained, seed the trace
	// referee, and swap in the live tracker and emitter.
	for i, sh := range e.shards {
		if err := sh.jr.sync(); err != nil {
			return nil, fmt.Errorf("engine: recover shard %d: sync resolutions: %w", i, err)
		}
		rep.TxnsRetained += sh.sched.NumActive() + sh.sched.NumCompleted()
	}
	if e.cfg.Log != nil {
		e.seedTraceLog()
	}
	for i, sh := range e.shards {
		sh.sched.SetTracker(e.liveTracker())
		sh.sched.SetEmitter(emit.ForShard(e.cfg.Bus, i))
		sh.retainedN.Store(int64(sh.sched.NumCompleted()))
		// Recovery counts as a sweep that kept what it restored, so the
		// orphan aborts above do not sweep on the shard's first visit.
		sh.sweptTerm, sh.sweptKept = sh.sched.Terminations(), int64(sh.sched.NumCompleted())
	}
	return rep, nil
}

// replayRecord re-applies one journal record. Accepted records must
// re-accept — the WAL and checkpoint describe one deterministic history,
// so any divergence means the medium lied.
func replayRecord(sched *core.Scheduler, r store.Record) error {
	switch r.Kind {
	case store.RecBegin:
		res, err := sched.Apply(model.Step{Kind: model.KindBegin, Txn: r.Txn, Entities: r.Entities})
		if err != nil || !res.Accepted {
			return replayDiverged(r, res, err)
		}
	case store.RecRead:
		res, err := sched.Apply(model.Step{Kind: model.KindRead, Txn: r.Txn, Entity: r.Entity})
		if err != nil || !res.Accepted {
			return replayDiverged(r, res, err)
		}
	case store.RecWrite:
		res, err := sched.Apply(model.Step{Kind: model.KindWriteFinal, Txn: r.Txn, Entities: r.Entities})
		if err != nil || !res.Accepted {
			return replayDiverged(r, res, err)
		}
	case store.RecBeginSub:
		if _, err := sched.BeginCross(model.Step{Kind: model.KindBegin, Txn: r.Txn, Entities: r.Entities}); err != nil {
			return fmt.Errorf("%v replay: %v", r.Kind, err)
		}
	case store.RecPrepare:
		vote, err := sched.PrepareFinal(model.Step{Kind: model.KindWriteFinal, Txn: r.Txn, Entities: r.Entities})
		if err != nil || vote != core.VoteYes {
			return fmt.Errorf("%v replay: vote=%v err=%v", r.Kind, vote, err)
		}
	case store.RecCommit:
		if _, err := sched.CommitPrepared(r.Txn); err != nil {
			// A recovery resolution journaled by an earlier crash-during-
			// recovery may duplicate a commit the replay already applied.
			if t := sched.Txn(r.Txn); t == nil || t.Status != model.StatusCompleted {
				return fmt.Errorf("%v replay: %v", r.Kind, err)
			}
		}
	case store.RecAbort:
		// Presumed abort: duplicates and unknown victims are fine.
		sched.AbortTxn(r.Txn)
	default:
		return fmt.Errorf("unknown record kind %d", r.Kind)
	}
	return nil
}

func replayDiverged(r store.Record, res core.Result, err error) error {
	if err != nil {
		return fmt.Errorf("%v replay: %v", r.Kind, err)
	}
	return fmt.Errorf("%v replay: journaled-accepted step re-applied as rejected (aborted T%d)", r.Kind, res.Aborted)
}

// seedTraceLog reconstructs the accepted subschedule of the recovered
// history into Config.Log, so the CSR referee covers pre-crash steps plus
// everything the restarted engine accepts. The events are synthesized from
// final state: one BEGIN per logical transaction, each retained read at
// its access sequence number, each write set as one final write — ordered
// per shard by scheduler sequence, which preserves every conflict order
// (conflicts never span shards). Aborted and deleted transactions are
// simply absent, exactly as the accepted subschedule excludes them.
func (e *Engine) seedTraceLog() {
	type ev struct {
		seq  int64
		step model.Step
	}
	begun := make(map[model.TxnID]bool)
	for _, sh := range e.shards {
		st := sh.sched.ExportState()
		events := make([]ev, 0, len(st.Txns)*2)
		for _, t := range st.Txns {
			if !begun[t.ID] {
				begun[t.ID] = true
				e.cfg.Log.Append(model.Step{Kind: model.KindBegin, Txn: t.ID}, true)
			}
			var writes []model.Entity
			var writeSeq int64
			for _, a := range t.Access {
				if a.Access == model.WriteAccess {
					writes = append(writes, a.Entity)
					if a.Seq > writeSeq {
						writeSeq = a.Seq
					}
				} else {
					events = append(events, ev{seq: a.Seq, step: model.Step{Kind: model.KindRead, Txn: t.ID, Entity: a.Entity}})
				}
			}
			if len(writes) > 0 {
				events = append(events, ev{seq: writeSeq, step: model.Step{Kind: model.KindWriteFinal, Txn: t.ID, Entities: writes}})
			}
		}
		// Insertion sort by seq: recovery-time, lists are small, and export
		// order (BeginSeq) is already nearly sorted.
		for i := 1; i < len(events); i++ {
			for j := i; j > 0 && events[j].seq < events[j-1].seq; j-- {
				events[j], events[j-1] = events[j-1], events[j]
			}
		}
		for _, v := range events {
			e.cfg.Log.Append(v.step, true)
		}
	}
}
