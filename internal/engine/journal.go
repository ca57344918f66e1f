package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/store"
)

// journal is a shard's durability seam: the one place that decides what
// reaches the disk and when. Every accepted step and every abort is
// appended to the shard's WAL before its reply leaves the shard; PREPARE
// votes and COMMIT decisions are additionally forced before they take
// effect; a sweep checkpoints what the deletion policy retained, which
// truncates the log (what C1/C2 proved safe to forget is exactly what is
// safe to drop from the disk), once the log has outgrown the last snapshot.
//
// The first failure of any store call latches err and the shard fail-stops:
// continuing to accept work that cannot be made durable would silently
// break the recovery contract. New applies are then refused (refusal), while
// abort and commit paths still run so in-flight 2PC decisions resolve in
// memory; every later journal call is a no-op. The zero value (no store) is
// a journal whose every method is a no-op.
//
// A journal belongs to whoever holds its shard's lock (and to recovery,
// which runs before any submission can take it), so fsync runs on the lock
// holder's goroutine.
type journal struct {
	st store.ShardStore
	// shard names the owner in refusals.
	shard int
	// syncEvery is Config.WALSyncEvery; pending counts records appended
	// since the log was last forced.
	syncEvery, pending int
	// ckptAt is the store's AppendedBytes at the last checkpoint of this
	// journal and snapBytes its snapshot's size (0, 0 before it); see swept.
	ckptAt, snapBytes int64
	err               error
	// rec is the reused record: Append serializes synchronously and never
	// retains its argument, so one buffer per shard replaces a heap-moved
	// local per journaled record (found by txgc-lint -escape).
	rec store.Record
}

// openJournal returns shard i's journal over s (nil: no durability).
func openJournal(s store.Store, i, syncEvery int) journal {
	if s == nil {
		return journal{}
	}
	return journal{st: s.Shard(i), shard: i, syncEvery: syncEvery}
}

// refusal is nil while the journal is healthy, and otherwise the error a
// fail-stopped shard answers step with.
func (j *journal) refusal(step model.Step) error {
	if j.err == nil {
		return nil
	}
	return fmt.Errorf("engine: shard %d journal failed (%v): %v: %w", j.shard, j.err, step, ErrClosed)
}

// record appends one record and forces the log when the record is promised
// durable before its effect — every record in strict mode (syncEvery 1),
// and always a PREPARE vote or a COMMIT decision: an unsynced YES must never
// reach the coordinator, and an unsynced COMMIT must never be applied — or
// when syncEvery records have accumulated. It reports a broken promise only:
// the latched failure if this record was promised durable, nil otherwise.
func (j *journal) record(kind store.RecKind, txn model.TxnID, entity model.Entity, entities []model.Entity) error {
	if j.st == nil {
		return nil
	}
	promised := j.syncEvery <= 1 || kind == store.RecPrepare || kind == store.RecCommit
	if j.err == nil {
		j.rec = store.Record{Kind: kind, Txn: txn, Entity: entity, Entities: entities}
		if j.err = j.st.Append(&j.rec); j.err == nil {
			j.pending++
			if promised || j.pending >= j.syncEvery {
				j.sync()
			}
		}
	}
	if promised {
		return j.err
	}
	return nil
}

// sync forces the log and reports the latch. A graceful close and the end
// of recovery are sync points: everything acknowledged, and every
// resolution, is durable once it returns nil.
func (j *journal) sync() error {
	if j.st != nil && j.err == nil {
		if j.err = j.st.Sync(); j.err == nil {
			j.pending = 0
		}
	}
	return j.err
}

// batchEnd pushes buffered frames to the OS once a drained run has been
// applied: records acknowledged inside it survive a process kill (not a
// power loss) without paying an fsync per run.
func (j *journal) batchEnd() {
	if j.st != nil && j.err == nil {
		j.err = j.st.Flush()
	}
}

// swept checkpoints after a deletion-policy sweep, which just proved what is
// safe to forget, once the log appended since the last checkpoint is
// non-empty and at least that checkpoint's snapshot size: an idle shard
// rewrites nothing, and the disk holds about two snapshots of retained state.
func (j *journal) swept(sched *core.Scheduler) {
	if j.st == nil || j.err != nil {
		return
	}
	appended := j.st.Stats().AppendedBytes
	if tail := appended - j.ckptAt; tail <= 0 || tail < j.snapBytes {
		return
	}
	snap := store.EncodeSnapshot(sched.ExportState())
	if j.err = j.st.Checkpoint(snap); j.err == nil {
		j.ckptAt, j.snapBytes = appended, int64(len(snap))
		j.pending = 0
	}
}

// load returns what recovery starts from: the latest checkpoint and the WAL
// tail after it.
func (j *journal) load() (store.ShardState, error) {
	if j.st == nil {
		return store.ShardState{}, nil
	}
	return j.st.Load()
}
