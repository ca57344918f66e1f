package store

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Mem is the in-memory Store backend. It runs the same frame codec as the
// file backend over byte buffers — so the contract suite exercises one
// encode/decode path for both — and survives Engine restarts within a
// process, which is what the crash harness and ephemeral deployments
// need. It does not survive the process.
type Mem struct {
	shards []memShard
}

// NewMem returns an in-memory store with n shards.
func NewMem(n int) *Mem {
	if n < 1 {
		n = 1
	}
	m := &Mem{shards: make([]memShard, n)}
	return m
}

// NumShards implements Store.
func (m *Mem) NumShards() int { return len(m.shards) }

// Shard implements Store.
func (m *Mem) Shard(i int) ShardStore { return &m.shards[i] }

// Close implements Store. The buffers stay readable: a reopened engine
// loads from the same Mem to simulate durable storage.
func (m *Mem) Close() error { return nil }

type memShard struct {
	mu sync.Mutex
	// pending holds encoded frames staged by Append; wal holds flushed
	// frames ("durable memory").
	pending []byte
	wal     []byte
	ckpt    []byte
	lastLSN uint64
	scratch []byte

	appendedBytes atomic.Int64
	fsyncs        atomic.Int64
	checkpointSeq atomic.Uint64
	records       atomic.Int64
}

func (s *memShard) Append(r *Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastLSN++
	r.LSN = s.lastLSN
	s.scratch = appendRecordPayload(s.scratch[:0], r)
	before := len(s.pending)
	s.pending = appendFrame(s.pending, s.scratch)
	s.appendedBytes.Add(int64(len(s.pending) - before))
	s.records.Add(1)
	return nil
}

func (s *memShard) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	return nil
}

func (s *memShard) flushLocked() {
	if len(s.pending) > 0 {
		s.wal = append(s.wal, s.pending...)
		s.pending = s.pending[:0]
	}
}

func (s *memShard) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	s.fsyncs.Add(1)
	return nil
}

func (s *memShard) Checkpoint(snapshot []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	s.ckpt = encodeCheckpoint(s.lastLSN, snapshot)
	s.wal = s.wal[:0]
	s.checkpointSeq.Store(s.lastLSN)
	s.fsyncs.Add(1)
	return nil
}

func (s *memShard) Load() (ShardState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st ShardState
	covered, snap, err := decodeCheckpoint(s.ckpt)
	if err != nil {
		return st, fmt.Errorf("mem checkpoint: %w", err)
	}
	st.Snapshot = snap
	st.CoveredLSN = covered
	// Only flushed frames count: an engine that crashed before Flush never
	// confirmed those records, exactly like the file backend's page cache.
	recs, cleanLen, err := scanWAL(s.wal)
	if err != nil {
		return ShardState{}, fmt.Errorf("mem wal: %w", err)
	}
	s.wal = s.wal[:cleanLen]
	s.pending = s.pending[:0]
	last := covered
	for _, r := range recs {
		if r.LSN <= covered {
			continue
		}
		st.Tail = append(st.Tail, r)
		last = r.LSN
	}
	// Pending (never-confirmed) records were discarded above, so the LSN
	// counter rewinds to the last surviving record — keeping future appends
	// contiguous with the flushed prefix.
	s.lastLSN = last
	return st, nil
}

func (s *memShard) Stats() Stats {
	return Stats{
		AppendedBytes: s.appendedBytes.Load(),
		Fsyncs:        s.fsyncs.Load(),
		CheckpointSeq: s.checkpointSeq.Load(),
		Records:       s.records.Load(),
	}
}
