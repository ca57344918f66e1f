// Package store is the engine's pluggable durability layer: a per-shard
// write-ahead log of the accepted subschedule plus an atomically-replaced
// checkpoint of the retained scheduler state.
//
// The WAL records what the scheduler *accepted* — begins, reads, final
// writes, 2PC begin/prepare/commit, and every abort (client, governor, or
// rejection victim) — because that stream is exactly what must replay to
// the same conflict graph. The checkpoint is taken at sweep boundaries:
// the paper's deletion conditions (C1/C2, Lemma 1) say what is safe to
// forget from the graph, and what is safe to forget from the graph is what
// is safe to truncate from the log. A sweep that deletes under C1 also
// advances the WAL truncation point — deletion policy as compaction
// policy.
//
// Two backends share one contract (see contract_test.go): Mem keeps the
// encoded frames in memory (surviving engine restarts within a process,
// for tests and ephemeral deployments), File journals them to
// shard-<i>.wal / shard-<i>.ckpt under a data directory with
// CRC-framed records, torn-tail repair, and an atomic
// write-tmp/fsync/rename checkpoint protocol.
package store

import (
	"errors"

	"repro/internal/model"
)

// ErrCorruptWAL marks a WAL or checkpoint whose *complete* frames fail
// validation: a CRC mismatch, an undecodable payload, an impossible frame
// length, or an LSN discontinuity. It is distinct from a torn tail (an
// incomplete final frame from a crash mid-write), which Load repairs
// silently — corruption means bytes the store once confirmed are now
// wrong, and recovery must not guess.
var ErrCorruptWAL = errors.New("store: corrupt WAL")

// RecKind identifies one journal record type.
type RecKind uint8

const (
	// RecBegin is an accepted BEGIN; Entities holds the declared footprint.
	RecBegin RecKind = iota + 1
	// RecRead is an accepted read of Entity.
	RecRead
	// RecWrite is an accepted final write; Entities holds the write set.
	// The transaction is completed.
	RecWrite
	// RecBeginSub is an accepted BEGIN of a cross-shard sub-transaction.
	RecBeginSub
	// RecPrepare is a YES vote on the 2PC PREPARE of a cross sub-
	// transaction; Entities holds this shard's slice of the write set.
	// Synced before the vote is reported — an unsynced YES vote must never
	// reach the coordinator.
	RecPrepare
	// RecCommit is the COMMIT decision applied to a prepared sub-
	// transaction. Synced before the in-memory commit.
	RecCommit
	// RecAbort is any abort: client abort, governor reap, 2PC abort
	// decision, or the victim of a rejected step. Aborts are presumed:
	// losing an unsynced RecAbort is safe because recovery aborts
	// unresolved transactions anyway.
	RecAbort
)

// String implements fmt.Stringer.
func (k RecKind) String() string {
	switch k {
	case RecBegin:
		return "begin"
	case RecRead:
		return "read"
	case RecWrite:
		return "write"
	case RecBeginSub:
		return "begin-sub"
	case RecPrepare:
		return "prepare"
	case RecCommit:
		return "commit"
	case RecAbort:
		return "abort"
	default:
		return "rec-unknown"
	}
}

// Record is one journal entry. LSN is assigned by the store on Append,
// strictly increasing per shard and monotone across checkpoints (a
// checkpoint truncates the log but never rewinds the LSN).
type Record struct {
	LSN  uint64
	Kind RecKind
	Txn  model.TxnID
	// Entity is RecRead's single entity (valid only for RecRead).
	Entity model.Entity
	// Entities is the footprint (RecBegin/RecBeginSub) or write set
	// (RecWrite/RecPrepare).
	Entities []model.Entity
}

// Stats are one shard store's counters, safe to read concurrently with
// appends (the scrape path runs while the shard is hot). Counters count
// since this store instance was opened — a restarted process starts at
// zero; only CheckpointSeq is recovered from the medium.
type Stats struct {
	// AppendedBytes counts encoded frame bytes accepted by Append.
	AppendedBytes int64
	// Fsyncs counts Sync calls that reached the backing medium.
	Fsyncs int64
	// CheckpointSeq is the LSN covered by the latest checkpoint (0 before
	// the first).
	CheckpointSeq uint64
	// Records counts records accepted by Append.
	Records int64
}

// ShardState is what Load recovers: the latest checkpoint's snapshot (nil
// if none was ever taken), the LSN it covers, and the WAL records after
// that point in append order.
type ShardState struct {
	Snapshot   []byte
	CoveredLSN uint64
	Tail       []Record
}

// ShardStore is one shard's durability endpoint. A shard store is used by
// one goroutine at a time, the shard's runner; only Stats may be called
// concurrently.
type ShardStore interface {
	// Append stages one record in the write buffer and assigns its LSN.
	// The record is not durable until Sync.
	Append(*Record) error
	// Flush pushes buffered frames to the backing medium (OS page cache
	// for the file backend) without forcing durability.
	Flush() error
	// Sync flushes and makes everything appended so far durable.
	Sync() error
	// Checkpoint atomically replaces the shard's checkpoint with snapshot,
	// covering every record appended so far, then truncates the WAL. On
	// return the snapshot is durable.
	Checkpoint(snapshot []byte) error
	// Load returns the recovery state: latest checkpoint + WAL tail. A
	// torn tail (incomplete final frame) is repaired; corrupt complete
	// frames yield ErrCorruptWAL.
	Load() (ShardState, error)
	// Stats returns the shard's counters; safe to call concurrently.
	Stats() Stats
}

// Store is a set of per-shard durability endpoints.
type Store interface {
	NumShards() int
	Shard(i int) ShardStore
	Close() error
}
