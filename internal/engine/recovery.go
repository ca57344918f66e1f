// Crash recovery: rebuilding an engine from the durability layer.
//
// Each shard's scheduler is reconstructed in two layers — the latest
// checkpoint (a state export, carrying the splice arcs deletion left
// behind) and the WAL tail replayed on top of it. Replay runs under the
// live cross registry, which tracks none of the recovered transactions and
// so admits every reach they report: only accepted records were journaled,
// so every veto already did its work before the crash. It runs with a nil
// emitter, since re-emitting replayed steps would double-count every
// metric; the live emitter is installed once replay ends, and every
// recovered cross transaction is retired on each shard.
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
// Resolutions run through the shard's own decision paths (applyCommitSub,
// applyAbortSub), which journal them, and are synced before Open returns,
// so a crash during (or right after) recovery re-resolves to the same
// state.
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
	// MaxTxnID is the highest TxnID the recovered state names: in a tail
	// record, a checkpointed transaction, or a current value's writer. A
	// client allocating IDs counts on from it, so it never reuses one the
	// recovered state still names.
	MaxTxnID model.TxnID
}

// subState is one shard's view of a recovered cross transaction.
type subState struct {
	shard    int
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
			sh.sched = core.NewScheduler(e.schedConfig(emit.ForShard(e.cfg.Bus, i)))
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
		replayCfg := e.schedConfig(nil)
		replayCfg.SweepManual = true
		if state.Snapshot != nil {
			snap, err := store.DecodeSnapshot(state.Snapshot)
			if err != nil {
				return nil, fmt.Errorf("engine: recover shard %d: checkpoint: %w", i, err)
			}
			sh.sched, err = core.RestoreScheduler(replayCfg, snap)
			if err != nil {
				return nil, fmt.Errorf("engine: recover shard %d: checkpoint: %v: %w", i, err, store.ErrCorruptWAL)
			}
			for _, t := range snap.Txns {
				rep.MaxTxnID = max(rep.MaxTxnID, t.ID)
			}
			for _, w := range snap.Writes {
				rep.MaxTxnID = max(rep.MaxTxnID, w.Writer)
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
			rep.MaxTxnID = max(rep.MaxTxnID, r.Txn)
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
				cross[t.ID] = append(cross[t.ID], subState{shard: i, prepared: t.Prepared})
				if t.Status == model.StatusCompleted {
					commitEvidence[t.ID] = true
				}
			} else if t.Status == model.StatusActive {
				orphans[i] = append(orphans[i], t.ID)
			}
		}
	}

	// Orphaned local actives: their sessions are gone; abort. Resolutions
	// run through the shard's own decision paths, which journal them.
	for i, ids := range orphans {
		for _, id := range ids {
			if e.shards[i].applyAbortSub(id).Aborted == id {
				rep.OrphansAborted++
			}
		}
	}

	// Cross transactions: finish commits, abort the rest. A committed
	// transaction with an unprepared sub cannot happen under the protocol
	// (votes are synced before the decision); the stray sub is shed.
	for _, id := range crossOrder {
		decided, aborted := commitEvidence[id], false
		for _, s := range cross[id] {
			sh := e.shards[s.shard]
			if decided && s.prepared {
				if res := sh.applyCommitSub(id); res.Err != nil {
					return nil, fmt.Errorf("engine: recover shard %d: commit T%d: %v: %w", s.shard, id, res.Err, store.ErrCorruptWAL)
				}
			} else if sh.applyAbortSub(id).Aborted == id {
				aborted = true
			}
		}
		switch {
		case decided:
			rep.CrossCommitted++
		case aborted:
			rep.CrossAborted++
		}
	}

	// Make the resolutions durable, count what is retained, seed the trace
	// referee, retire the recovered cross transactions (the registry tracks
	// none of them) and swap in the live emitter.
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
		sh.sched.Retire(crossOrder...)
		sh.sched.SetEmitter(emit.ForShard(e.cfg.Bus, i))
		sh.retainedN.Store(int64(sh.sched.NumCompleted()))
		// The shard sweeps from its first terminating step on; the orphan
		// aborts above did not, so what they released waits for it.
		sh.sched.SetSweepManual(false)
	}
	return rep, nil
}

// replayRecord re-applies one journal record. Accepted records must
// re-accept — the WAL and checkpoint describe one deterministic history,
// so any divergence means the medium lied.
//
// A local BEGIN may name the ID of a transaction the replay holds
// completed: the live engine deleted that incarnation before it accepted
// the BEGIN, and replay, which never sweeps, still has it. Replay deletes
// it first, through the C1 test; a refusal is a divergence. A sub-begin
// gets no such leave: commit evidence is keyed by TxnID, so a RecCommit of
// the earlier incarnation would decide the later one, and a reused cross
// ID fails Open instead of committing what presumed abort would abort.
func replayRecord(sched *core.Scheduler, r store.Record) error {
	if t := sched.Txn(r.Txn); t != nil && t.Status == model.StatusCompleted && r.Kind == store.RecBegin && !sched.DeleteIfSafe(r.Txn) {
		return fmt.Errorf("%v replay: completed T%d fails C1", r.Kind, r.Txn)
	}
	switch r.Kind {
	case store.RecBegin:
		res, err := sched.Apply(model.Step{Kind: model.KindBegin, Txn: r.Txn, Entities: r.Entities})
		if err != nil || !res.Accepted {
			return replayDiverged(r, res, err)
		}
	case store.RecBeginSub:
		if _, err := sched.BeginCross(model.Step{Kind: model.KindBegin, Txn: r.Txn, Entities: r.Entities}); err != nil {
			return fmt.Errorf("%v replay: %v", r.Kind, err)
		}
	case store.RecRead:
		res, err := sched.Apply(model.Step{Kind: model.KindRead, Txn: r.Txn, Entity: r.Entity})
		if err != nil || !res.Accepted {
			return replayDiverged(r, res, err)
		}
	case store.RecWrite, store.RecPrepare:
		// A sub-transaction's final write is its vote: it must re-apply
		// prepared, and any other final write completed.
		res, err := sched.Apply(model.Step{Kind: model.KindWriteFinal, Txn: r.Txn, Entities: r.Entities})
		if err != nil || !res.Accepted {
			return replayDiverged(r, res, err)
		}
		if prepared := res.CompletedTxn == model.NoTxn; prepared != (r.Kind == store.RecPrepare) {
			return fmt.Errorf("%v replay: final write re-applied with prepared=%v", r.Kind, prepared)
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
