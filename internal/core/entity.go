// The scheduler's read/write-set bookkeeping: one record per entity, one
// access list per transaction.
//
// An entity has a record while a retained transaction touches it or while it
// holds a current value. The record lists the retained transactions that
// read or wrote it — the arena slots Rules 2 and 3 consult and C1's
// witnesses — and names its current value's writer and sequence number
// (Corollary 1). A transaction keeps a short list of what it accessed, each
// entry naming its entity's record, so the step paths, deletion and the
// deletion conditions reach a record through the list: an entity is hashed
// once, when a transaction first touches it. Deleting a transaction forgets
// its list and drops it from the records the list names.
//
// A record is freed once no retained transaction touches it and it holds no
// current value. Written records stay: the current values are the
// schedule's database, which snapshots export and recovery restores.
// Records live by value in one slab indexed from the entity map, freed slots
// and emptied reader/writer arrays are reused, so in steady state the table
// allocates nothing.
package core

import (
	"repro/internal/graph"
	"repro/internal/model"
)

// access is one entry of a transaction's access list.
type access struct {
	x   model.Entity
	rec int32        // slot of x's record in entityTable.recs
	a   model.Access // strongest access so far
	// reader marks the transaction as listed in the record's readers: its
	// first access to x was a read. A write lists it among the writers.
	reader bool
	seq    int64 // sequence number of the latest access (Corollary 1)
}

// entity is one entity's record.
type entity struct {
	readers []graph.Ref
	writers []graph.Ref
	// lastSeq and lastWriter are the current value: the sequence number of
	// the latest committed write and its writer, which may have been
	// deleted since — precisely what makes the naive noncurrent rule
	// non-compositional. lastSeq is 0 while the entity has never been
	// written (sequence numbers start at 1).
	lastSeq    int64
	lastWriter model.TxnID
}

func (e *entity) written() bool { return e.lastSeq > 0 }

// entityTable holds the records and their pool. A *entity into recs is valid
// only until the next add, which may grow the slab.
type entityTable struct {
	ids  map[model.Entity]int32
	recs []entity
	free []int32 // slots of freed records
	// arrays holds the backing arrays of emptied reader/writer lists, so a
	// record gaining its first reader or writer again — a written record's,
	// or a fresh one's — does not allocate. Bounded by arraysMax.
	arrays [][]graph.Ref
}

// arraysMax bounds the array pool; beyond it, emptied arrays are released to
// the GC (a cold keyspace shrinking for good must not pin its storage).
const arraysMax = 256

// find returns the index of x in t's access list, or -1.
func (t *TxnState) find(x model.Entity) int {
	for i := range t.acc {
		if t.acc[i].x == x {
			return i
		}
	}
	return -1
}

// recordOf returns the slot of x's record, reached through t's access list
// when t has touched x and through the entity map otherwise, or -1 when x
// has no record.
func (s *Scheduler) recordOf(t *TxnState, x model.Entity) int32 {
	if i := t.find(x); i >= 0 {
		return t.acc[i].rec
	}
	if r, ok := s.ents.ids[x]; ok {
		return r
	}
	return -1
}

// add files a fresh record for x, which has none, and returns its slot.
func (et *entityTable) add(x model.Entity) int32 {
	var r int32
	if n := len(et.free); n > 0 {
		r = et.free[n-1]
		et.free = et.free[:n-1]
	} else {
		r = int32(len(et.recs))
		et.recs = append(et.recs, entity{})
	}
	et.ids[x] = r
	return r
}

// file returns the slot of x's record, filing one if x has none.
func (et *entityTable) file(x model.Entity) int32 {
	if r, ok := et.ids[x]; ok {
		return r
	}
	return et.add(x)
}

// release frees x's record in slot r if nothing holds it any more.
func (et *entityTable) release(x model.Entity, r int32) {
	if e := &et.recs[r]; e.readers == nil && e.writers == nil && !e.written() {
		delete(et.ids, x)
		et.free = append(et.free, r)
	}
}

// push appends ref to a reader or writer list, seeding an empty list from
// the array pool.
func (et *entityTable) push(rs []graph.Ref, ref graph.Ref) []graph.Ref {
	if rs == nil {
		if n := len(et.arrays); n > 0 {
			rs = et.arrays[n-1]
			et.arrays[n-1] = nil
			et.arrays = et.arrays[:n-1]
		}
	}
	return append(rs, ref)
}

// drop removes ref from a reader or writer list. A list it empties becomes
// nil and gives its backing array to the pool.
func (et *entityTable) drop(rs []graph.Ref, ref graph.Ref) []graph.Ref {
	if rs = graph.DropRef(rs, ref); len(rs) > 0 {
		return rs
	}
	if cap(rs) > 0 && len(et.arrays) < arraysMax {
		et.arrays = append(et.arrays, rs[:0])
	}
	return nil
}

// noteAccess records t's access a to x and returns the slot of x's record.
// r is that slot as recordOf found it before the step (-1: x had no record,
// and only an earlier entity of this same step can have filed one since —
// which leaves it in t's list).
func (s *Scheduler) noteAccess(t *TxnState, x model.Entity, a model.Access, r int32) int32 {
	i := t.find(x)
	if i < 0 {
		if r < 0 {
			r = s.ents.add(x)
		}
		t.acc = append(t.acc, access{x: x, rec: r})
		i = len(t.acc) - 1
	}
	ac := &t.acc[i]
	ac.seq = s.seq
	if a > ac.a {
		// First read of x lists t as a reader; a (final) write lists it as a
		// writer even if it read x before — Rule 3 consults both.
		e := &s.ents.recs[ac.rec]
		if a == model.WriteAccess {
			e.writers = s.ents.push(e.writers, t.ref)
		} else {
			e.readers = s.ents.push(e.readers, t.ref)
			ac.reader = true
		}
		ac.a = a
	}
	return ac.rec
}

// forget erases t from the records its access list names and frees those
// left holding nothing. Its graph node is handled separately (RemoveRef on
// abort, ReduceRef on deletion), and its list is cleared by releaseState.
func (s *Scheduler) forget(t *TxnState) {
	for i := range t.acc {
		ac := &t.acc[i]
		e := &s.ents.recs[ac.rec]
		if ac.reader {
			e.readers = s.ents.drop(e.readers, t.ref)
		}
		if ac.a == model.WriteAccess {
			e.writers = s.ents.drop(e.writers, t.ref)
		}
		s.ents.release(ac.x, ac.rec)
	}
}
