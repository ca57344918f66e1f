package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// FuzzWALFrame throws arbitrary byte mutations and truncations at the
// frame scanner. The contract (satellite of the crash-durability issue):
// any input yields either a clean scan (possibly with a torn tail) or a
// typed ErrCorruptWAL — never a panic, never a record that a re-encode
// does not reproduce byte-for-byte.
func FuzzWALFrame(f *testing.F) {
	// Seed with real WALs: single records, multi-record streams, and a
	// stream with a torn tail.
	mk := func(recs ...*Record) []byte {
		var buf, scratch []byte
		for i, r := range recs {
			r.LSN = uint64(i + 1)
			scratch = appendRecordPayload(scratch[:0], r)
			buf = appendFrame(buf, scratch)
		}
		return buf
	}
	f.Add(mk(rec(RecBegin, 1, 0, 1, 2)))
	f.Add(mk(rec(RecRead, 1, 5)))
	f.Add(mk(rec(RecBegin, 1, 0), rec(RecRead, 1, 0), rec(RecWrite, 1, 0)))
	f.Add(mk(rec(RecBeginSub, -1, 3), rec(RecPrepare, -1, 3), rec(RecCommit, -1), rec(RecAbort, 2)))
	full := mk(rec(RecBegin, 9, 7), rec(RecWrite, 9, 7))
	f.Add(full[:len(full)-3])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, cleanLen, err := scanWAL(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptWAL) {
				t.Fatalf("scanWAL error %v is not ErrCorruptWAL", err)
			}
			return
		}
		if cleanLen < 0 || cleanLen > len(data) {
			t.Fatalf("clean prefix %d out of range [0,%d]", cleanLen, len(data))
		}
		// Re-encoding the decoded records must reproduce the clean prefix
		// exactly: no silent misparse can survive this.
		var buf, scratch []byte
		for i := range recs {
			scratch = appendRecordPayload(scratch[:0], &recs[i])
			buf = appendFrame(buf, scratch)
		}
		if len(buf) != cleanLen {
			t.Fatalf("re-encode length %d != clean prefix %d", len(buf), cleanLen)
		}
		for i := range buf {
			if buf[i] != data[i] {
				t.Fatalf("re-encode differs from input at byte %d", i)
			}
		}
		// LSNs are contiguous by construction.
		for i := 1; i < len(recs); i++ {
			if recs[i].LSN != recs[i-1].LSN+1 {
				t.Fatalf("non-contiguous LSNs %d after %d survived the scan", recs[i].LSN, recs[i-1].LSN)
			}
		}
	})
}

// FuzzSnapshot holds DecodeSnapshot to the same standard: arbitrary bytes
// either decode (and re-encode deterministically) or fail typed.
func FuzzSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{snapshotVersion})
	f.Add(EncodeSnapshot(sampleState()))
	f.Add(v1Snapshot())
	f.Add(v2PinnedSnapshot())
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptWAL) {
				t.Fatalf("DecodeSnapshot error %v is not ErrCorruptWAL", err)
			}
			return
		}
		re, err := DecodeSnapshot(EncodeSnapshot(st))
		if err != nil {
			t.Fatalf("re-decode of re-encode failed: %v", err)
		}
		if len(re.Txns) != len(st.Txns) || len(re.Arcs) != len(st.Arcs) || len(re.Writes) != len(st.Writes) {
			t.Fatalf("re-decode changed shape")
		}
	})
}

func sampleState() core.SchedulerState {
	s := core.NewScheduler(core.Config{})
	s.MustApply(model.Begin(1))
	s.MustApply(model.Read(1, 3))
	s.MustApply(model.Begin(2))
	s.MustApply(model.WriteFinal(2, 3))
	return s.ExportState()
}

// v1Snapshot is a version-1 checkpoint as earlier releases wrote it: one
// completed cross sub-transaction T7 (wrote entity 3 at seq 2) carrying the
// labels T3 and T5, which v1 listed after each transaction's accesses.
func v1Snapshot() []byte {
	b := []byte{snapshotVersionV1}
	b = binary.AppendVarint(b, 4)  // seq
	b = binary.AppendUvarint(b, 1) // txns
	b = binary.AppendVarint(b, 7)
	b = append(b, byte(model.StatusCompleted))
	b = binary.AppendVarint(b, 1) // begin seq
	b = binary.AppendVarint(b, 2) // end seq
	b = append(b, snapFlagCross)
	b = binary.AppendUvarint(b, 1) // accesses
	b = binary.AppendVarint(b, 3)
	b = append(b, byte(model.WriteAccess))
	b = binary.AppendVarint(b, 2)
	b = binary.AppendUvarint(b, 2) // labels
	b = binary.AppendVarint(b, 3)
	b = binary.AppendVarint(b, 5)
	b = binary.AppendUvarint(b, 0) // arcs
	b = binary.AppendUvarint(b, 1) // writes
	b = binary.AppendVarint(b, 3)
	b = binary.AppendVarint(b, 2)
	b = binary.AppendVarint(b, 7)
	return b
}

// v2PinnedSnapshot is a version-2 checkpoint as earlier releases wrote it
// for one prepared cross sub-transaction T7 (its final write of entity 3
// voted at seq 2): its flags byte carries bit 2, the graph pin, beside the
// prepared bit.
func v2PinnedSnapshot() []byte {
	return []byte{
		snapshotVersion,
		0x4, // seq 2
		0x1, // txns
		0xe, // T7
		0x0, // active
		0x2, // begin seq 1
		0x4, // end seq 2
		0x7, // cross | prepared | pinned (1<<2)
		0x1, // accesses
		0x6, // entity 3
		0x2, // write
		0x4, // seq 2
		0x0, // arcs
		0x0, // writes
	}
}

// TestSnapshotV2PinnedBitStillDecodes: a checkpoint that marked a prepared
// sub-transaction's pin (flag bit 2) keeps opening. The bit is ignored; the
// sub-node restores prepared from its own prepared bit, and re-encodes
// without the pin.
func TestSnapshotV2PinnedBitStillDecodes(t *testing.T) {
	data := v2PinnedSnapshot()
	st, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	want := core.TxnSnap{ID: 7, Status: model.StatusActive, BeginSeq: 1, EndSeq: 2, IsCross: true, Prepared: true,
		Access: []core.AccessSnap{{Entity: 3, Access: model.WriteAccess, Seq: 2}}}
	if st.Seq != 2 || len(st.Txns) != 1 || fmt.Sprintf("%+v", st.Txns[0]) != fmt.Sprintf("%+v", want) ||
		len(st.Arcs) != 0 || len(st.Writes) != 0 {
		t.Fatalf("decoded as %+v", st)
	}
	s, err := core.RestoreScheduler(core.Config{}, st)
	if err != nil {
		t.Fatalf("RestoreScheduler: %v", err)
	}
	if !s.Prepared(7) || s.NumPrepared() != 1 || s.Status(7) != model.StatusActive {
		t.Fatalf("restored T7: prepared=%v count=%d status=%v, want a prepared active sub-node",
			s.Prepared(7), s.NumPrepared(), s.Status(7))
	}
	data[7] = snapFlagCross | snapFlagPrepared
	if enc := EncodeSnapshot(s.ExportState()); string(enc) != string(data) {
		t.Fatalf("re-encoded as %#v, want %#v", enc, data)
	}
}

// TestSnapshotV1StillDecodes: a data dir checkpointed by a version-1 writer
// keeps opening. Its label lists are read and dropped; everything else
// decodes as written, and re-encodes as version 2.
func TestSnapshotV1StillDecodes(t *testing.T) {
	st, err := DecodeSnapshot(v1Snapshot())
	if err != nil {
		t.Fatalf("DecodeSnapshot(v1): %v", err)
	}
	want := core.TxnSnap{ID: 7, Status: model.StatusCompleted, BeginSeq: 1, EndSeq: 2, IsCross: true,
		Access: []core.AccessSnap{{Entity: 3, Access: model.WriteAccess, Seq: 2}}}
	if st.Seq != 4 || len(st.Txns) != 1 || fmt.Sprintf("%+v", st.Txns[0]) != fmt.Sprintf("%+v", want) ||
		len(st.Arcs) != 0 || len(st.Writes) != 1 || st.Writes[0] != (core.EntityWrite{Entity: 3, Seq: 2, Writer: 7}) {
		t.Fatalf("v1 decoded as %+v", st)
	}
	enc := EncodeSnapshot(st)
	if enc[0] != snapshotVersion {
		t.Fatalf("re-encoded as version %d, want %d", enc[0], snapshotVersion)
	}
	if re, err := DecodeSnapshot(enc); err != nil || fmt.Sprintf("%+v", re) != fmt.Sprintf("%+v", st) {
		t.Fatalf("v2 round trip: %+v, %v; want %+v", re, err, st)
	}
}
