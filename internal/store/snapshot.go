// Snapshot codec: a deterministic binary encoding of
// core.SchedulerState, used as the checkpoint payload. The layout is a
// version byte followed by varint-packed sections (transactions, arcs,
// entity writes); every list is length-prefixed and the exporter sorts
// each section, so equal states encode to equal bytes — a property the
// contract tests lean on.
//
// Version 2 is written. Version 1 also carried each transaction's
// cross-ancestor labels after its accesses; it still decodes, with the
// labels read and dropped (a recovered engine tracks no cross transaction,
// so every one of them is dead), so an existing data dir keeps opening.
package store

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
)

const (
	snapshotVersion   = 2
	snapshotVersionV1 = 1
)

// Transaction flags. Bit 2 marked a prepared sub-transaction's graph pin;
// it is no longer written, and a set bit decodes as nothing more than the
// prepared bit beside it says.
const (
	snapFlagCross    = 1 << 0
	snapFlagPrepared = 1 << 1
)

// EncodeSnapshot serializes an exported scheduler state.
func EncodeSnapshot(st core.SchedulerState) []byte {
	buf := []byte{snapshotVersion}
	buf = binary.AppendVarint(buf, st.Seq)
	buf = binary.AppendUvarint(buf, uint64(len(st.Txns)))
	for i := range st.Txns {
		t := &st.Txns[i]
		buf = binary.AppendVarint(buf, int64(t.ID))
		buf = append(buf, byte(t.Status))
		buf = binary.AppendVarint(buf, t.BeginSeq)
		buf = binary.AppendVarint(buf, t.EndSeq)
		var flags byte
		if t.IsCross {
			flags |= snapFlagCross
		}
		if t.Prepared {
			flags |= snapFlagPrepared
		}
		buf = append(buf, flags)
		buf = binary.AppendUvarint(buf, uint64(len(t.Access)))
		for _, a := range t.Access {
			buf = binary.AppendVarint(buf, int64(a.Entity))
			buf = append(buf, byte(a.Access))
			buf = binary.AppendVarint(buf, a.Seq)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(st.Arcs)))
	for _, a := range st.Arcs {
		buf = binary.AppendVarint(buf, int64(a.From))
		buf = binary.AppendVarint(buf, int64(a.To))
	}
	buf = binary.AppendUvarint(buf, uint64(len(st.Writes)))
	for _, w := range st.Writes {
		buf = binary.AppendVarint(buf, int64(w.Entity))
		buf = binary.AppendVarint(buf, w.Seq)
		buf = binary.AppendVarint(buf, int64(w.Writer))
	}
	return buf
}

// snapReader decodes varint sections with a sticky error.
type snapReader struct {
	p   []byte
	err error
}

func (r *snapReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: snapshot: bad %s", ErrCorruptWAL, what)
	}
}

func (r *snapReader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.p)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.p = r.p[n:]
	return v
}

func (r *snapReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.p)
	if n <= 0 || v > maxFrameLen {
		r.fail(what)
		return 0
	}
	r.p = r.p[n:]
	return v
}

func (r *snapReader) byte(what string) byte {
	if r.err != nil {
		return 0
	}
	if len(r.p) == 0 {
		r.fail(what)
		return 0
	}
	b := r.p[0]
	r.p = r.p[1:]
	return b
}

// DecodeSnapshot inverts EncodeSnapshot.
func DecodeSnapshot(data []byte) (core.SchedulerState, error) {
	var st core.SchedulerState
	if len(data) == 0 || (data[0] != snapshotVersion && data[0] != snapshotVersionV1) {
		return st, fmt.Errorf("%w: snapshot: unknown version", ErrCorruptWAL)
	}
	v1 := data[0] == snapshotVersionV1
	r := &snapReader{p: data[1:]}
	st.Seq = r.varint("seq")
	ntxns := r.uvarint("txn count")
	for i := uint64(0); i < ntxns && r.err == nil; i++ {
		var t core.TxnSnap
		t.ID = model.TxnID(r.varint("txn id"))
		t.Status = model.Status(r.byte("txn status"))
		t.BeginSeq = r.varint("begin seq")
		t.EndSeq = r.varint("end seq")
		flags := r.byte("txn flags")
		t.IsCross = flags&snapFlagCross != 0
		t.Prepared = flags&snapFlagPrepared != 0
		naccess := r.uvarint("access count")
		for j := uint64(0); j < naccess && r.err == nil; j++ {
			var a core.AccessSnap
			a.Entity = model.Entity(r.varint("access entity"))
			a.Access = model.Access(r.byte("access kind"))
			a.Seq = r.varint("access seq")
			t.Access = append(t.Access, a)
		}
		if v1 {
			nlabels := r.uvarint("label count")
			for j := uint64(0); j < nlabels && r.err == nil; j++ {
				r.varint("label")
			}
		}
		st.Txns = append(st.Txns, t)
	}
	narcs := r.uvarint("arc count")
	for i := uint64(0); i < narcs && r.err == nil; i++ {
		var a graph.Arc
		a.From = model.TxnID(r.varint("arc from"))
		a.To = model.TxnID(r.varint("arc to"))
		st.Arcs = append(st.Arcs, a)
	}
	nwrites := r.uvarint("write count")
	for i := uint64(0); i < nwrites && r.err == nil; i++ {
		var w core.EntityWrite
		w.Entity = model.Entity(r.varint("write entity"))
		w.Seq = r.varint("write seq")
		w.Writer = model.TxnID(r.varint("writer"))
		st.Writes = append(st.Writes, w)
	}
	if r.err != nil {
		return core.SchedulerState{}, r.err
	}
	if len(r.p) != 0 {
		return core.SchedulerState{}, fmt.Errorf("%w: snapshot: %d trailing bytes", ErrCorruptWAL, len(r.p))
	}
	return st, nil
}
