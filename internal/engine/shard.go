package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/store"
)

// request is one shard visit: a window of steps and their answers, and the
// snapshots the visitor asked for. Both doors' windows, every 2PC phase and
// every abort are windows, sent by Engine.visit or run; a visit with no step
// is a plain visit, which hands the shard its retirements and does the
// housekeeping. A request holds no step and no answer by value, so it stays
// small to build: handing a field of it to the apply functions would leak a
// step's Entities through their error paths, and escape analysis does not
// tell one field of the request from another, so that leak would take steps
// and out, and with them SubmitPriority's one-step window, to the heap.
type request struct {
	// steps is a window and out its results, both aliasing the caller's
	// buffers: the shard writes out[k] for each step k it owns (every step
	// when own is 0, else the set bits of own), so the shards a window fans
	// out to write disjoint elements, and the caller reads none until every
	// shard has run.
	steps []model.Step
	out   []Result
	own   uint64
	// stats and actives, when non-nil, receive the scheduler's counters and
	// its oldest active transactions (the retention governor's candidates),
	// read after the window.
	stats   *core.Stats
	actives *[]core.ActiveInfo
}

// owns reports whether step k of the window is this shard's to apply.
func (r *request) owns(k int) bool { return r.own == 0 || r.own&(1<<k) != 0 }

// refuse answers every step of the window this shard owns with ErrClosed.
func (r *request) refuse() {
	for k, st := range r.steps {
		if r.owns(k) {
			r.out[k] = closedResult(st)
		}
	}
}

// shard is one entity partition: one core.Scheduler behind one mutex. The
// shard has no goroutine and no queue of its own. A submitter takes the
// lock, applies its own request and the housekeeping after it, and lets go
// (run): the paper's scheduler is a sequential machine fed one step at a
// time, and that asks for mutual exclusion, nothing more.
type shard struct {
	idx int
	eng *Engine
	// sched is the shard's single-writer scheduler kernel. Everything
	// marked //txgc:owner shard below is part of the same discipline: the
	// goroutine holding mu inside (*shard).run owns it. txgc-lint's
	// shardowned analyzer enforces the access side of that contract
	// statically.
	sched *core.Scheduler //txgc:owner shard
	// mu is the shard's lock; see run.
	mu sync.Mutex
	// closed marks the shard down: set by the first run after the engine
	// closed, which also synced the journal.
	closed atomic.Bool
	// depth counts the submitters waiting for mu: the lock-wait gauge
	// Stats.QueueDepth, bounded by the callers' own goroutines.
	depth atomic.Int64
	// preparedN and retainedN mirror the scheduler's prepared-but-undecided
	// and retained-completed counts for lock-free reads (Engine.Gauges,
	// Stats.PreparedByShard, the governor's trigger); every run refreshes
	// them before it unlocks.
	preparedN atomic.Int64
	retainedN atomic.Int64
	// handoff carries IDs between the scheduler and the cross registry: the
	// retirements the registry hands over at the start of a visit
	// (crossRegistry.take), the clean reports the scheduler hands over at
	// its end (core.Scheduler.TakeClean).
	handoff []model.TxnID //txgc:owner shard

	// jr is this shard's durability seam (journal.go) — the only way the
	// shard reaches the store.
	jr journal //txgc:owner shard
}

// testHookRoundTrip, when non-nil, runs on the submitting goroutine once
// per shard visit, with the lock held: the visit counter of the
// batch-window tests and benchmarks.
var testHookRoundTrip func(sh *shard)

// testHookPark, when non-nil, runs on a submitter about to block on a
// shard lock held elsewhere: the counter of the batch benchmark.
var testHookPark func()

// waitSpins is how many times a submitter that finds the shard's lock held
// yields and retries before it blocks in Lock: a run on another goroutine
// usually ends within that many yields, and blocking costs a sleep and a
// wake-up where a yield costs neither.
const waitSpins = 64

// lock takes the shard's lock, counting the caller in depth while it waits.
func (sh *shard) lock() {
	if sh.mu.TryLock() {
		return
	}
	sh.depth.Add(1)
	defer sh.depth.Add(-1)
	for i := 0; i < waitSpins; i++ {
		runtime.Gosched()
		if sh.mu.TryLock() {
			return
		}
	}
	if hook := testHookPark; hook != nil {
		hook()
	}
	sh.mu.Lock()
}

// run applies req to the shard and fills in its answer; false means the
// engine is closed and req was not applied. It takes the shard's lock
// (waiting if another submitter holds it), hands the scheduler the
// registry's retirements, runs handle, does the housekeeping once — flush,
// checkpoint, the retained gauge, the cross registry's clean reports — and
// unlocks. The scheduler sweeps by itself after every step that terminates
// a transaction (a completion, a rejection, an abort) and after a hand-over
// of retirements that released anything; each sweep examines only what
// that termination or those retirements released (core/witness.go).
// tryRun is the same visit for a caller that would rather come back later
// than wait.
//
// Why no goroutine holds two shard locks. Nothing run calls under the lock
// calls run or tryRun: handle, the apply functions and the housekeeping
// touch this shard's state, the atomics, and leaf locks (the cross
// registry, the route map, the trace log, the store) under which no shard
// lock is ever wanted. Shard code never takes a crossTxn's mu either. So the
// only nesting in the engine is ct.mu → one shard lock, taken by the 2PC
// driver and by submit settling its window under beginCross, and a cycle of
// waits would need a lock holder that waits for a ct.mu or a second shard.
//
// No timer is needed for registry upkeep. A committed cross
// sub-transaction becomes clean only at a step of this shard: its own
// commit, or the termination here (completion, rejection or abort) of the
// active ancestor that kept it dirty. The scheduler notes it at that step,
// and every run ends by handing what it noted to the registry.
//
// Once the engine is closed, the first run syncs the journal and marks the
// shard down, and it and every later run answer false without applying
// anything; a request for stats alone is still answered from the scheduler.
func (sh *shard) run(req *request) bool {
	sh.lock()
	return sh.locked(req)
}

// tryRun is run if the shard's lock is free, and reports whether it was
// (ran); it never waits. Engine.visit, its one caller, visits the free
// shards first with it.
func (sh *shard) tryRun(req *request) (ok, ran bool) {
	if !sh.mu.TryLock() {
		return false, false
	}
	return sh.locked(req), true
}

// locked is the body of run, entered with the shard's lock held, which it
// releases.
func (sh *shard) locked(req *request) bool {
	defer sh.mu.Unlock()
	if hook := testHookRoundTrip; hook != nil {
		hook(sh)
	}
	if sh.eng.closed.Load() {
		if !sh.closed.Load() {
			// A graceful close is a sync point: everything acknowledged is
			// durable when Close returns.
			sh.jr.sync()
			sh.closed.Store(true)
		}
		if req.stats == nil || len(req.steps) > 0 {
			return false
		}
		*req.stats = sh.sched.Stats()
		return true
	}
	sweeps := sh.sched.Stats().Sweeps
	// The registry's retirements land before any step of the visit.
	sh.handoff = sh.eng.registry.take(sh.idx, sh.handoff)
	sh.sched.Retire(sh.handoff...)
	sh.handle(req)
	// Buffered frames reach the OS, so a process kill loses at most the
	// unsynced fsync batch, never the unflushed one.
	sh.jr.batchEnd()
	if sh.sched.Stats().Sweeps != sweeps {
		// A visit that swept checkpoints what its sweeps retained, once
		// the log has outgrown the last snapshot.
		sh.jr.swept(sh.sched)
	}
	sh.preparedN.Store(int64(sh.sched.NumPrepared()))
	if n := int64(sh.sched.NumCompleted()); n > sh.retainedN.Swap(n) {
		sh.eng.retentionGrew()
	}
	// Registry upkeep: report committed cross sub-transactions whose
	// ancestor set froze, so the registry can retire them and unblock
	// deletion of their labeled successors.
	sh.handoff = sh.sched.TakeClean(sh.handoff[:0])
	if len(sh.handoff) > 0 {
		sh.eng.registry.reportClean(sh.idx, sh.handoff...)
	}
	if hook := testHookCrossClean; hook != nil {
		hook(sh, sh.handoff)
	}
	return true
}

// handle applies one request and fills in its answer: each step it owns,
// a 2PC decision through its own path and any other step through applyOne,
// then the snapshots asked for.
func (sh *shard) handle(req *request) {
	for k, st := range req.steps {
		if !req.owns(k) {
			continue
		}
		switch st.Kind {
		case model.KindCommit:
			req.out[k] = sh.applyCommitSub(st.Txn)
		case model.KindAbort:
			req.out[k] = sh.applyAbortSub(st.Txn)
		default:
			req.out[k] = sh.applyOne(st)
		}
	}
	if req.stats != nil {
		*req.stats = sh.sched.Stats()
	}
	if req.actives != nil {
		*req.actives = sh.sched.OldestActives(governorCandidates)
	}
}

// applyOne runs one step on the scheduler, journals it, and returns the
// engine-level result, updating the engine counters and route table.
//
// A BEGIN whose footprint spans shards is a cross sub-begin, which only the
// 2PC driver sends, and the final write of a cross sub-transaction is its
// vote (core.Scheduler.Apply). The driver counts each logical step of a
// cross transaction once, so a sub-begin or a vote counts nothing here. A
// rejected step of a cross sub-transaction, a read or a NO vote, removes
// only this shard's sub-node: the submitting goroutine owns the logical
// abort (siblings, route, counters), so route and abort bookkeeping are
// skipped here for cross routes.
//
//txgc:hotpath
func (sh *shard) applyOne(step model.Step) (out Result) {
	eng := sh.eng
	if err := sh.jr.refusal(step); err != nil {
		if step.Kind == model.KindWriteFinal {
			// A vote the failed journal refuses names its transaction, which
			// tells it from a participant the closed engine kept from voting
			// at all (refused).
			if r, _ := eng.routes.load(step.Txn); r.ct != nil {
				return answer(step.Txn, err)
			}
		}
		return errResult(err)
	}
	sub := false
	if step.Kind == model.KindBegin {
		_, sub = eng.beginRoute(step)
	}
	var res core.Result
	var err error
	if sub {
		res, err = sh.sched.BeginCross(step)
	} else {
		res, err = sh.sched.Apply(step)
	}
	if err != nil {
		if step.Kind != model.KindBegin && sh.txnGone(step.Txn) {
			// The transaction ended between the submitter's route lookup and
			// this step reaching the scheduler — an earlier step of the same
			// batch window was rejected or was its final write, or the
			// governor's abort landed in between. It is dead, not
			// protocol-confused: answer as admit would have answered a step
			// behind the end, so the session learns its transaction is gone
			// (and, for a reap, why).
			return eng.deadTxn(step)
		}
		// The scheduler refused to process the step at all (duplicate
		// BEGIN, step for a finished transaction, bad kind): a protocol
		// violation, state unchanged.
		return errResult(protocolErr(err))
	}
	if eng.cfg.Log != nil {
		eng.cfg.Log.Append(step, res.Accepted)
	}
	out = Result{Aborted: res.Aborted, CompletedTxn: res.CompletedTxn}
	if res.Accepted {
		var jerr error
		switch {
		case step.Kind == model.KindRead:
			eng.accepted.Add(1)
			jerr = sh.jr.record(store.RecRead, step.Txn, step.Entity, nil)
		case sub:
			jerr = sh.jr.record(store.RecBeginSub, step.Txn, 0, step.Entities)
		case step.Kind == model.KindBegin:
			eng.accepted.Add(1)
			jerr = sh.jr.record(store.RecBegin, step.Txn, 0, step.Entities)
		case res.CompletedTxn != model.NoTxn:
			eng.accepted.Add(1)
			jerr = sh.jr.record(store.RecWrite, step.Txn, 0, step.Entities)
		default:
			// A YES vote, forced to disk before it leaves the shard. One
			// that could not be made durable must never reach the
			// coordinator: it answers as a NO vote does, naming the
			// transaction, and the coordinator's ABORT releases the
			// prepared sub-node with its siblings.
			if jerr = sh.jr.record(store.RecPrepare, step.Txn, 0, step.Entities); jerr != nil {
				out.Aborted = step.Txn
			}
		}
		if jerr != nil {
			// Strict mode promised durability before the ack, and the journal
			// died on this very step: answer with the failure instead of the
			// accept. The scheduler keeps the step in memory, but the shard
			// has fail-stopped, so the only observer left is recovery — which
			// won't have the record, agreeing with the client that the ack
			// never happened.
			out = answer(out.Aborted, sh.jr.refusal(step))
		}
	} else {
		if res.CrossVeto {
			out.Err = stepErr(step, ErrCrossCycle)
		} else {
			out.Err = stepErr(step, ErrCycle)
		}
		// The rejection's victim is gone from the graph; replay must see
		// the abort or it would resurrect the victim live.
		sh.jr.record(store.RecAbort, res.Aborted, 0, nil)
		if r, ok := eng.routes.load(res.Aborted); !ok || r.ct == nil {
			eng.rejected.Add(1)
			eng.aborted.Add(1)
			eng.routes.delete(res.Aborted)
		} else if step.Kind == model.KindRead {
			// The driver counts a NO vote's rejection, once for all voters.
			eng.rejected.Add(1)
		}
	}
	if res.CompletedTxn != model.NoTxn {
		eng.completed.Add(1)
		eng.routes.delete(res.CompletedTxn)
	}
	return out
}

// txnGone reports whether id no longer names a live transaction: its route
// is gone, the governor reaped it (the reap marks the ID before the route
// is dropped), or it is a cross transaction whose sub-node here is gone. A
// cross route outlives its sub-nodes until its abort is finished: a
// rejected read earlier in the same window, or an abort under way, removed
// this one, and the submitter drops the route once that lands.
func (sh *shard) txnGone(id model.TxnID) bool {
	if sh.eng.reaped.contains(id) {
		return true
	}
	r, live := sh.eng.routes.load(id)
	return !live || r.ct != nil && sh.sched.Txn(id) == nil
}

// applyCommitSub completes a prepared sub-transaction (COMMIT decision).
// The decision record is journaled and synced BEFORE the in-memory commit:
// once any participant has a durable RecCommit, recovery finishes the
// commit on every lagging sibling. The first participant's journal is
// therefore the commit point — if it fails, no durable evidence exists
// anywhere, recovery would presume abort, and so must we: release the
// prepared sub and answer with the failure so the coordinator aborts the
// siblings instead of acknowledging a commit only memory ever saw. A COMMIT
// anywhere else finds the decision durable already — on the first
// participant, or, with no route left, in the log recovery is finishing —
// so a local journal failure fail-stops the shard but the commit still
// applies in memory: the decision stands, and recovery finishes it from the
// evidence. The route is looked up only when the journal fails, and its
// participants never change, so reading them needs no ct.mu.
func (sh *shard) applyCommitSub(id model.TxnID) Result {
	if sh.jr.record(store.RecCommit, id, 0, nil) != nil {
		if r, _ := sh.eng.routes.load(id); r.ct != nil && r.ct.parts[0] == sh.idx {
			sh.applyAbortSub(id)
			return answer(id, sh.jr.refusal(model.Step{Kind: model.KindWriteFinal, Txn: id}))
		}
	}
	res, err := sh.sched.CommitPrepared(id)
	if err != nil {
		return errResult(protocolErr(err))
	}
	return Result{Aborted: model.NoTxn, CompletedTxn: res.CompletedTxn}
}

// applyAbortSub aborts a transaction in any state and answers naming it in
// Aborted if it was live here; unknown IDs (the scheduler already rejected
// a step of it here) are fine. It is also how a vote or decision that could
// not be journaled lets go of its prepared sub: the journal has latched by
// then, so nothing more is written.
func (sh *shard) applyAbortSub(id model.TxnID) Result {
	if sh.sched.AbortTxn(id) != nil {
		return answer(model.NoTxn, nil)
	}
	sh.jr.record(store.RecAbort, id, 0, nil)
	return answer(id, nil)
}

// answer is a Result for a step that completed nothing: err (nil when it
// was accepted) and the transaction it aborted (NoTxn: none).
func answer(aborted model.TxnID, err error) Result {
	return Result{Aborted: aborted, CompletedTxn: model.NoTxn, Err: err}
}

// errResult is the answer to a step the shard could not process: nothing
// was aborted or completed by it.
func errResult(err error) Result { return answer(model.NoTxn, err) }

// closedResult is what every door answers for a step the engine can no
// longer run: closed before the submit, or before the step reached its
// shard.
func closedResult(step model.Step) Result { return errResult(stepErr(step, ErrClosed)) }

// testHookCrossClean, when non-nil, runs under the shard's lock at the end
// of every run with the IDs it just reported clean; the differential test
// recomputes the report set by full scan from it.
var testHookCrossClean func(sh *shard, reported []model.TxnID)
