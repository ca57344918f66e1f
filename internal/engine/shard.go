package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/store"
)

type reqKind uint8

const (
	// reqBatch applies this shard's steps of a window in one visit: local
	// steps and cross sub-transaction reads alike, from either door.
	reqBatch reqKind = iota
	// reqStats snapshots the shard's scheduler counters.
	reqStats
	// reqBeginSub begins a sub-transaction of a cross-partition
	// transaction on this shard.
	reqBeginSub
	// reqPrepareSub is phase one of a cross-partition final write: vote on
	// this shard's slice of the write set, pinning the sub-node on yes.
	reqPrepareSub
	// reqCommitSub is the COMMIT decision for a prepared sub-transaction.
	reqCommitSub
	// reqAbortSub aborts a transaction: a sub-transaction in any state
	// (begun, mid-reads, or prepared) — the ABORT decision, a sibling-abort,
	// or a client abort — or a local one (misroute, client abort). The
	// answer, aborted, says whether it applied.
	reqAbortSub
	// reqOldest snapshots the shard's oldest active transactions for the
	// retention governor's straggler selection.
	reqOldest
	// reqSweep forces a deletion-policy sweep now (the governor sweeps
	// after each reap so released pins turn into reclaimed storage before
	// the next watermark check).
	reqSweep
)

// request is one shard visit: what it applies, and the shard's answer. No
// step it applies is held by value: a sub-begin or prepare reaches its step
// through a pointer. Handing a step field to the apply functions would leak
// its Entities through their error paths, and escape analysis does not tell
// one field of the request from another, so that leak would take steps and
// out, and with them SubmitPriority's one-step window, to the heap: 8
// allocations per 4-step transaction.
//
// Nor does it hold an answer only one kind needs by value: reqStats and
// reqOldest write theirs through a pointer into the caller's variable, so
// every request, a reqBatch above all, stays small to build and to copy.
type request struct {
	kind reqKind
	// decisionDurable marks a reqCommitSub whose COMMIT decision is already
	// durable on an earlier participant: a journaling failure here must not
	// block the in-memory commit (recovery finishes the laggard from the
	// evidence). The first participant's journal is the commit point.
	decisionDurable bool
	// aborted is the answer to a reqAbortSub: whether the transaction was
	// live here.
	aborted bool
	// txn names the transaction a reqCommitSub or reqAbortSub decides.
	txn model.TxnID
	// step is what a reqBeginSub or reqPrepareSub applies.
	step *model.Step
	// steps is a reqBatch's window and out its results, both aliasing the
	// caller's buffers: the shard writes out[k] for each step k it owns
	// (every step when own is 0, else the set bits of own), so the shards a
	// window fans out to write disjoint elements, and the caller reads none
	// until every shard has run.
	steps []model.Step
	out   []Result
	own   uint64
	// res is the answer to a reqBeginSub, reqPrepareSub or reqCommitSub.
	res Result
	// stats and actives, when non-nil, receive the answer to a reqStats and
	// a reqOldest.
	stats   *core.Stats
	actives *[]core.ActiveInfo
}

// owns reports whether a reqBatch's step k is this shard's to apply.
func (r *request) owns(k int) bool { return r.own == 0 || r.own&(1<<k) != 0 }

// refuse answers every step of a reqBatch this shard owns with ErrClosed.
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
	// preparedN is the number of prepared-but-undecided sub-transactions
	// currently pinned on this shard (Stats.PreparedByShard). Only the
	// lock holder writes it, but the atomic type licenses gauge reads from
	// anywhere — the shardowned analyzer exempts atomics.
	preparedN atomic.Int64 //txgc:owner shard
	// retainedN mirrors the scheduler's retained-completed count for
	// lock-free reads (Engine.Gauges, the governor's trigger); every
	// run refreshes it before it unlocks.
	retainedN atomic.Int64
	// sweptTerm and sweptKept are the scheduler's Terminations and its
	// retained-completed count as of the last sweep; see maybeSweep.
	sweptTerm, sweptKept int64 //txgc:owner shard
	// watch is what this shard owes the cross registry: the committed cross
	// sub-transactions awaiting its cleanliness report, each entry carrying
	// the witness that keeps it dirty. watchTerm is the scheduler's
	// Terminations at the last pass over the list. See reportCrossClean.
	watch     []watched //txgc:owner shard
	watchTerm int64     //txgc:owner shard
	// cleanBuf is scratch for cross-registry clean reporting.
	cleanBuf []model.TxnID //txgc:owner shard
	// witnessSearches counts the ancestor searches reportCrossClean has run
	// (the proportionality test's meter).
	witnessSearches int64 //txgc:owner shard

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
// (waiting if another submitter holds it), runs handle, does the
// housekeeping once — flush, sweep, the retained gauge, the cross
// registry's clean reports — and unlocks. tryRun is the same visit for a
// caller that would rather come back later than wait.
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
// No timer is needed for registry upkeep. What this shard owes the
// registry changes only when it commits a cross sub-transaction, or when
// the active ancestor keeping a committed sub-transaction dirty terminates
// here (completes, is rejected, or is aborted). Both happen inside handle,
// and every run ends in reportCrossClean.
//
// Once the engine is closed, the first run syncs the journal and marks the
// shard down, and it and every later run answer false without applying
// anything; a reqStats is still answered from the scheduler.
func (sh *shard) run(req *request) bool {
	sh.lock()
	return sh.locked(req)
}

// tryRun is run if the shard's lock is free, and reports whether it was
// (ran); it never waits. The fan-outs visit the free shards first with it.
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
		if req.kind != reqStats {
			return false
		}
		sh.handle(req)
		return true
	}
	sh.handle(req)
	// Buffered frames reach the OS, so a process kill loses at most the
	// unsynced fsync batch, never the unflushed one.
	sh.jr.batchEnd()
	sh.maybeSweep()
	if n := int64(sh.sched.NumCompleted()); n > sh.retainedN.Swap(n) {
		sh.eng.retentionGrew()
	}
	// Registry upkeep: report committed cross sub-transactions whose
	// ancestor set froze, so the registry can retire them and unblock
	// deletion of their labeled successors.
	sh.reportCrossClean()
	return true
}

// handle applies one request and fills in its answer.
func (sh *shard) handle(req *request) {
	switch req.kind {
	case reqBatch:
		for k, st := range req.steps {
			if req.owns(k) {
				req.out[k] = sh.applyOne(st)
			}
		}
	case reqStats:
		if req.stats != nil {
			*req.stats = sh.sched.Stats()
		}
	case reqBeginSub:
		req.res = sh.applyBeginSub(*req.step)
	case reqPrepareSub:
		req.res = sh.applyPrepareSub(*req.step)
	case reqCommitSub:
		req.res = sh.applyCommitSub(req.txn, req.decisionDurable)
	case reqAbortSub:
		req.aborted = sh.applyAbortSub(req.txn)
	case reqOldest:
		*req.actives = sh.sched.OldestActives(governorCandidates)
	case reqSweep:
		sh.sweep()
	}
}

// applyOne runs one step on the scheduler and returns the engine-level
// result, updating the engine counters and route table. A rejected step of
// a cross sub-transaction removes only this shard's sub-node; the
// submitting goroutine owns the logical abort (siblings, route, counters),
// so route and abort bookkeeping are skipped here for cross routes.
//
//txgc:hotpath
func (sh *shard) applyOne(step model.Step) (out Result) {
	eng := sh.eng
	if err := sh.jr.refusal(step); err != nil {
		return errResult(err)
	}
	res, err := sh.sched.Apply(step)
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
		eng.accepted.Add(1)
		var jerr error
		switch step.Kind {
		case model.KindBegin:
			jerr = sh.jr.record(store.RecBegin, step.Txn, 0, step.Entities)
		case model.KindRead:
			jerr = sh.jr.record(store.RecRead, step.Txn, step.Entity, nil)
		case model.KindWriteFinal:
			jerr = sh.jr.record(store.RecWrite, step.Txn, 0, step.Entities)
		}
		if jerr != nil {
			// Strict mode promised durability before the ack, and the journal
			// died on this very step: answer with the failure instead of the
			// accept. The scheduler keeps the step in memory, but the shard
			// has fail-stopped, so the only observer left is recovery — which
			// won't have the record, agreeing with the client that the ack
			// never happened.
			out = errResult(sh.jr.refusal(step))
		}
	} else {
		if res.CrossVeto {
			out.Err = stepErr(step, ErrCrossCycle)
		} else {
			out.Err = stepErr(step, ErrCycle)
		}
		eng.rejected.Add(1)
		if res.Aborted != model.NoTxn {
			// The rejection's victim is gone from the graph; replay must
			// see the abort or it would resurrect the victim live.
			sh.jr.record(store.RecAbort, res.Aborted, 0, nil)
		}
	}
	if res.CompletedTxn != model.NoTxn {
		eng.completed.Add(1)
		eng.routes.delete(res.CompletedTxn)
	}
	if res.Aborted != model.NoTxn {
		if r, ok := eng.routes.load(res.Aborted); !ok || r.kind != routeCross {
			eng.aborted.Add(1)
			eng.routes.delete(res.Aborted)
		}
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
	return !live || r.kind == routeCross && sh.sched.Txn(id) == nil
}

// applyBeginSub begins a cross sub-transaction on this shard's scheduler.
// Engine-level logical counters are the 2PC driver's job; the shard only
// applies and logs.
func (sh *shard) applyBeginSub(step model.Step) Result {
	if err := sh.jr.refusal(step); err != nil {
		return errResult(err)
	}
	if _, err := sh.sched.BeginCross(step); err != nil {
		return errResult(protocolErr(err))
	}
	if sh.eng.cfg.Log != nil {
		sh.eng.cfg.Log.Append(step, true)
	}
	if sh.jr.record(store.RecBeginSub, step.Txn, 0, step.Entities) != nil {
		// Strict mode: the sub-begin could not be made durable, so refuse it
		// and let the coordinator abort the siblings (see applyOne).
		return errResult(sh.jr.refusal(step))
	}
	return answer(model.NoTxn, nil)
}

// applyPrepareSub votes on this shard's slice of a cross final write. A
// YES vote logs the write at its conflict position (the arcs go into the
// graph now; a later ABORT excludes the transaction via MarkAborted) and
// pins the sub-node.
func (sh *shard) applyPrepareSub(step model.Step) Result {
	if err := sh.jr.refusal(step); err != nil {
		return errResult(err)
	}
	vote, err := sh.sched.PrepareFinal(step)
	// The gauge tracks the scheduler's prepared state, not the vote: a
	// late registry veto (VoteCrossCycle out of crossFlood) leaves the
	// node prepared+pinned until the coordinator's abort, and that abort
	// decrements the gauge via applyAbortSub.
	if sh.sched.Prepared(step.Txn) {
		sh.preparedN.Add(1)
	}
	if err != nil {
		return errResult(protocolErr(err))
	}
	switch vote {
	case core.VoteYes:
		if sh.jr.record(store.RecPrepare, step.Txn, 0, step.Entities) != nil {
			// The YES vote could not be made durable, so it must never
			// reach the coordinator: release the sub-transaction locally
			// and answer with the failure (the coordinator then aborts the
			// siblings).
			sh.applyAbortSub(step.Txn)
			return answer(step.Txn, sh.jr.refusal(step))
		}
		if sh.eng.cfg.Log != nil {
			sh.eng.cfg.Log.Append(step, true)
		}
		return answer(model.NoTxn, nil)
	case core.VoteCrossCycle:
		return answer(step.Txn, stepErr(step, ErrCrossCycle))
	default: // VoteLocalCycle
		return answer(step.Txn, stepErr(step, ErrCycle))
	}
}

// applyCommitSub completes a prepared sub-transaction (COMMIT decision).
// The decision record is journaled and synced BEFORE the in-memory commit:
// once any participant has a durable RecCommit, recovery finishes the
// commit on every lagging sibling. The first participant's journal is
// therefore the commit point — if it fails, no durable evidence exists
// anywhere, recovery would presume abort, and so must we: release the
// prepared sub and answer with the failure so the coordinator aborts the
// siblings instead of acknowledging a commit only memory ever saw. Once
// some earlier participant holds the record (decisionDurable), a local
// journal failure fail-stops the shard but the commit still applies in
// memory: the decision stands, and recovery finishes it from the evidence.
func (sh *shard) applyCommitSub(id model.TxnID, decisionDurable bool) Result {
	if sh.jr.record(store.RecCommit, id, 0, nil) != nil && !decisionDurable {
		sh.applyAbortSub(id)
		return answer(id, sh.jr.refusal(model.Step{Kind: model.KindWriteFinal, Txn: id}))
	}
	res, err := sh.sched.CommitPrepared(id)
	if err != nil {
		return errResult(protocolErr(err))
	}
	sh.preparedN.Add(-1)
	// The registry now waits for this shard's clean report: file the debt.
	// The commit is itself a termination, so this run's closing
	// reportCrossClean examines the entry.
	sh.watch = append(sh.watch, watched{id: id, slot: graph.NoRef})
	return Result{Aborted: model.NoTxn, CompletedTxn: res.CompletedTxn}
}

// applyAbortSub aborts a transaction in any state and reports whether it
// was live here; unknown IDs (the scheduler already rejected a step of it
// here) are fine. It is also how a vote or decision that could not be
// journaled lets go of its prepared sub: the journal has latched by then,
// so nothing more is written.
func (sh *shard) applyAbortSub(id model.TxnID) bool {
	if sh.sched.Prepared(id) {
		sh.preparedN.Add(-1)
	}
	if sh.sched.AbortTxn(id) != nil {
		return false
	}
	sh.jr.record(store.RecAbort, id, 0, nil)
	return true
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

// sweep runs the deletion policy now, then lets the journal checkpoint what
// it retained.
func (sh *shard) sweep() {
	sh.sched.SweepNow()
	sh.sweptTerm, sh.sweptKept = sh.sched.Terminations(), int64(sh.sched.NumCompleted())
	sh.jr.swept(sh.sched)
}

// maybeSweep sweeps once the terminations (completions, rejections, aborts)
// since the last sweep reach the completed transactions it kept, and at
// least one: an unpinned shard sweeps at every termination, and each
// re-check of a kept list is paid for by as many terminations.
func (sh *shard) maybeSweep() {
	if sh.eng.cfg.Policy != nil && sh.sched.Terminations()-sh.sweptTerm >= max(1, sh.sweptKept) {
		sh.sweep()
	}
}

// watched is one committed cross sub-transaction awaiting this shard's
// cleanliness report, with the witness that keeps it dirty: the arena slot
// and BeginSeq of one active ancestor (slot NoRef: not examined yet).
type watched struct {
	id       model.TxnID
	slot     graph.Ref
	beginSeq int64
}

// testHookCrossClean, when non-nil, runs under the shard's lock at the end
// of every reportCrossClean with the IDs that pass just reported; the
// differential test recomputes the report set by full scan from it.
var testHookCrossClean func(sh *shard, reported []model.TxnID)

// reportCrossClean tells the registry which committed cross transactions
// have a frozen ancestor set on this shard (no active ancestor — Lemma 1's
// premise, which is monotone once the sub-node is completed). When every
// participant has reported, the registry retires the transaction and its
// labels die, unblocking deletion downstream.
//
// The answer for every watched entry is the one a full ancestor search
// would give, but the search runs only where that answer can have changed.
// The witness is the first active node a backward search met, so every node
// strictly between it and the watched node was completed at the time. A
// completed node leaves the graph only by deletion, which splices its arcs
// (reduction preserves reachability among the nodes that remain); rejections
// and aborts remove active nodes only, so they cannot touch that path; and
// the watched node itself cannot go, because the registry still tracks it,
// which gates it from every policy. The witness therefore stays an ancestor
// for as long as it stays active, and the entry stays dirty with it. So an
// entry is re-examined only when it is new or its witness terminated, and a
// batch that terminated nothing skips the list altogether (a new entry comes
// with a termination: the commit that filed it).
func (sh *shard) reportCrossClean() {
	reported := sh.cleanBuf[:0]
	if term := sh.sched.Terminations(); len(sh.watch) > 0 && term != sh.watchTerm {
		sh.watchTerm = term
		kept := sh.watch[:0]
		for _, w := range sh.watch {
			if w.slot != graph.NoRef && sh.sched.ActiveAt(w.slot, w.beginSeq) {
				kept = append(kept, w)
				continue
			}
			sh.witnessSearches++
			if slot, seq, found := sh.sched.ActiveAncestor(w.id); found {
				kept = append(kept, watched{id: w.id, slot: slot, beginSeq: seq})
			} else {
				// No active ancestor, or no sub-node here at all.
				reported = append(reported, w.id)
			}
		}
		sh.watch = kept
		if len(reported) > 0 {
			sh.eng.registry.reportClean(sh.idx, reported...)
		}
	}
	sh.cleanBuf = reported
	if hook := testHookCrossClean; hook != nil {
		hook(sh, reported)
	}
}
