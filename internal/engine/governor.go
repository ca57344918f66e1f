// The retention governor: the enforcement half of the paper's storage
// argument. The deletion conditions (C1/C2) bound *what may* be reclaimed;
// they cannot bound *what is* retained, because one long-lived active
// transaction is an active tight predecessor of every completed transaction
// it raced — none of them can ever acquire the witnesses Theorem 1 demands
// while it lives, and PR 3's cross-ancestor labels extend the blockade
// across shards. The governor turns the watermark into an SLO: when the
// engine-wide retained count crosses Config.RetentionWatermark, it aborts
// the oldest live straggler through the same machinery as a client
// context-deadline abort (Engine.Abort → a KindAbort step on its shard, or
// crossClientAbort's fan-out), which removes the straggler's node and arcs,
// drops its registry entry and labels, and thereby re-enables the sweeps
// that reclaim its hostages.
//
// Trigger: no clock, no goroutine. A run that grows a shard's retained count
// to an engine total at or over the watermark sets Engine.govWanted; the next
// submitter to finish claims it and runs the pass, so the traffic that grew
// retention pays for it and an idle engine reaps nothing.
//
// Selection policy: oldest active by BeginSeq (reported per shard by
// core.Scheduler.OldestActives, compared across shards by age in scheduler
// steps), skipping PriorityHigh transactions (route.pri) and prepared 2PC
// sub-transactions (a YES vote is a promise the coordinator owns). One
// governor pass reaps, sweeps, rechecks — and stops as soon as the
// watermark holds, no straggler remains eligible, or a reap frees nothing
// deletable (reaping more actives then would be a massacre with no storage
// payoff).
package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/emit"
	"repro/internal/model"
)

const (
	// governorCandidates is how many oldest actives each shard reports per
	// pass; enough to survive a few PriorityHigh or just-finished entries
	// at the front without a second visit.
	governorCandidates = 8
	// maxReapsPerPass caps the reap+sweep iterations of one governor pass,
	// bounding the time a pass can hold govMu even under a watermark set
	// absurdly below the working set.
	maxReapsPerPass = 32
	// reapedRemember bounds the reaped-ID memory (reapedSet): old entries
	// are evicted FIFO once the session that owned them has long since seen
	// its error.
	reapedRemember = 1024
)

// reapedSet remembers recently reaped TxnIDs so late steps of a reaped
// transaction surface ErrStragglerAborted instead of the generic
// ErrTxnAborted. It is consulted on failure paths (route misses and
// scheduler rejections) and by every BEGIN, which sheds its ID's mark.
// ids maps each remembered ID to the ring slot it owns; an ID removed early
// leaves its slot unowned, so the add that later overwrites the slot
// evicts only an ID still owning it. marks counts the remembered IDs per
// hash bucket, so an ID whose bucket is empty — nearly every BEGIN's, and
// every ID of an engine that never reaped — is known absent without mu.
type reapedSet struct {
	mu    sync.Mutex
	ids   map[model.TxnID]int
	ring  [reapedRemember]model.TxnID
	pos   int
	marks [reapedBuckets]atomic.Int32
}

// reapedBuckets sizes reapedSet's lock-free pre-check: four buckets per
// remembered ID keep a full set's false positives under a quarter.
const (
	reapedBucketBits = 12
	reapedBuckets    = 1 << reapedBucketBits
)

// bucket is id's pre-check bucket (Fibonacci hashing: consecutive IDs
// spread over the whole table).
func (r *reapedSet) bucket(id model.TxnID) *atomic.Int32 {
	return &r.marks[uint64(id)*0x9E3779B97F4A7C15>>(64-reapedBucketBits)]
}

// maybe reports whether id can be remembered: false is certain, true sends
// the caller to the map under mu. Marks are set under mu before an ID is
// remembered and cleared after it is forgotten, so a reap that happened
// before the caller asked is never missed.
func (r *reapedSet) maybe(id model.TxnID) bool { return r.bucket(id).Load() != 0 }

func (r *reapedSet) add(id model.TxnID) {
	r.mu.Lock()
	if r.ids == nil {
		r.ids = make(map[model.TxnID]int)
	}
	if _, ok := r.ids[id]; !ok {
		if slot, ok := r.ids[r.ring[r.pos]]; ok && slot == r.pos {
			delete(r.ids, r.ring[r.pos])
			r.bucket(r.ring[r.pos]).Add(-1)
		}
		r.bucket(id).Add(1)
		r.ids[id] = r.pos
		r.ring[r.pos] = id
		r.pos = (r.pos + 1) % reapedRemember
	}
	r.mu.Unlock()
}

func (r *reapedSet) remove(id model.TxnID) {
	if !r.maybe(id) {
		return
	}
	r.mu.Lock()
	if _, ok := r.ids[id]; ok {
		delete(r.ids, id)
		r.bucket(id).Add(-1)
	}
	r.mu.Unlock()
}

func (r *reapedSet) contains(id model.TxnID) bool {
	if !r.maybe(id) {
		return false
	}
	r.mu.Lock()
	_, ok := r.ids[id]
	r.mu.Unlock()
	return ok
}

// retentionGrew is called by a shard whose run grew its retained count: at
// or over the watermark, it asks the next submitter for a pass.
func (e *Engine) retentionGrew() {
	if w := e.cfg.RetentionWatermark; w > 0 && e.cfg.Policy != nil && e.retainedSum() >= int64(w) {
		e.govWanted.Store(true)
	}
}

// governIfWanted runs the pass a shard asked for, on the submitter that
// claims the request first. Both doors call it once their steps are answered.
func (e *Engine) governIfWanted() {
	if e.govWanted.Load() && e.govWanted.CompareAndSwap(true, false) {
		e.govern(e.cfg.RetentionWatermark)
	}
}

// govern runs one governor pass against watermark and returns the number of
// stragglers it reaped. Tests call it on an engine configured without a
// watermark to reap deterministically. Safe for concurrent use; a no-op
// without a Policy or once the engine closed.
func (e *Engine) govern(watermark int) int {
	if watermark <= 0 || e.cfg.Policy == nil || e.closed.Load() {
		return 0
	}
	e.govMu.Lock()
	defer e.govMu.Unlock()
	reaped := 0
	for attempts := 0; attempts < maxReapsPerPass; attempts++ {
		total := e.retainedSum()
		if total < int64(watermark) {
			break
		}
		id, shardIdx, inc, ok := e.oldestStraggler()
		if !ok {
			// Nothing eligible: every active is PriorityHigh, prepared, or
			// gone. The watermark stays crossed until traffic changes.
			break
		}
		if !e.reapOne(id, shardIdx, inc, total) {
			// Lost the race (the straggler finished first); try the next
			// candidate in the same pass.
			continue
		}
		reaped++
		e.sweepAll()
		if e.retainedSum() >= total {
			// The reap released nothing deletable — the remaining retention
			// is pinned by other actives or undecided 2PC, and reaping more
			// of the oldest would repeat the same non-result. Yield until
			// retention grows again.
			break
		}
	}
	return reaped
}

// retainedSum sums the shards' retained gauges, lock-free.
func (e *Engine) retainedSum() int64 {
	var total int64
	for _, sh := range e.shards {
		total += sh.retainedN.Load()
	}
	return total
}

// oldestStraggler picks the reap victim: the globally oldest active
// transaction by age in scheduler steps, excluding PriorityHigh routes and
// (inside OldestActives) prepared sub-transactions. Ages from different
// shards are comparable only as staleness proxies — each shard's seq
// advances at its own traffic rate — which is exactly the bias we want: a
// straggler on a busy shard blocks more deletions per unit time.
func (e *Engine) oldestStraggler() (id model.TxnID, shard int, inc int64, ok bool) {
	var best core.ActiveInfo
	bestShard := -1
	for i, sh := range e.shards {
		var actives []core.ActiveInfo
		if !sh.run(&request{actives: &actives}) {
			continue
		}
		for _, info := range actives {
			r, routed := e.routes.load(info.ID)
			if !routed || r.pri == PriorityHigh {
				continue
			}
			if bestShard < 0 || info.Age > best.Age {
				best, bestShard = info, i
			}
		}
	}
	if bestShard < 0 {
		return model.NoTxn, 0, 0, false
	}
	return best.ID, bestShard, best.BeginSeq, true
}

// reapOne aborts one straggler through the client-abort machinery,
// recording the verdict first so any session step racing the abort already
// finds the reaped mark. Returns false if the transaction resolved itself
// before the abort landed.
func (e *Engine) reapOne(id model.TxnID, shard int, inc, total int64) bool {
	e.reaped.add(id)
	if !e.Abort(id) {
		e.reaped.remove(id)
		return false
	}
	e.reapedN.Add(1)
	if e.cfg.Bus != nil {
		e.cfg.Bus.Emit(emit.Event{Kind: emit.KindReap, Class: emit.ClassStraggler,
			Shard: int32(shard), Txn: id, Incarnation: inc, N: total})
	}
	return true
}

// sweepAll visits every shard. A reap's aborts sweep their own shards, but
// the retirements the reap allows (the reaped cross transaction's, and
// those that cascade from it) release labels on shards that terminated
// nothing since. A visit hands a shard its retirements, and the scheduler
// sweeps what they released (core.Scheduler.Retire); without the visit
// those would wait for the shard's next termination and the pass would
// over-reap. Whether the reap freed anything is read from the
// retained gauges: the reap's own run swept already.
func (e *Engine) sweepAll() {
	for _, sh := range e.shards {
		sh.run(&request{})
	}
}
