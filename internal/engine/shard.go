package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/ring"
	"repro/internal/store"
)

type reqKind uint8

const (
	// reqStep applies one step to the shard's scheduler (local steps and
	// cross sub-transaction reads alike).
	reqStep reqKind = iota
	// reqBatch applies this shard's steps of a batch window in one
	// round-trip (SubmitBatch).
	reqBatch
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
	// reply's n says whether it applied.
	reqAbortSub
	// reqOldest snapshots the shard's oldest active transactions for the
	// retention governor's straggler selection.
	reqOldest
	// reqSweep forces a deletion-policy sweep now (the governor sweeps
	// after each reap so released pins turn into reclaimed storage before
	// the next watermark check).
	reqSweep
)

type request struct {
	kind reqKind
	step model.Step
	// decisionDurable marks a reqCommitSub whose COMMIT decision is already
	// durable on an earlier participant: a journaling failure here must not
	// block the in-memory commit (recovery finishes the laggard from the
	// evidence). The first participant's journal is the commit point.
	decisionDurable bool
	// steps is a reqBatch's window and out its results, both aliasing the
	// caller's buffers: the shard writes out[k] for each step k it owns
	// (every step when own is 0, else the set bits of own), so the shards a
	// window fans out to write disjoint elements, and the caller reads none
	// until every reply is in.
	steps []model.Step
	out   []Result
	own   uint64
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

type reply struct {
	res   Result
	stats core.Stats
	// actives answers reqOldest; n answers reqSweep (transactions deleted),
	// reqStats (transactions retained) and reqAbortSub (transactions
	// aborted: 0 or 1).
	actives []core.ActiveInfo
	n       int64
}

// shard is one entity partition: one core.Scheduler, and the ring its
// requests queue on. The shard has no goroutine of its own. Its runner is
// whichever goroutine holds the runner flag, and only the runner touches
// the scheduler: a submitter waiting for a reply takes the flag when it is
// free and runs the shard itself (serve), applying its own request and any
// others queued on the ring.
//
// Submission runs on a lock-free MPSC ring (ring.Mailbox): producers claim
// a cell with one CAS and publish with one store, and replies come back
// through the same cell — no per-request channel is allocated, pooled, or
// selected on. The runner drains the ring in runs of up to runLength
// requests, so housekeeping amortizes across a whole backlog.
type shard struct {
	idx int
	eng *Engine
	// sched is the shard's single-writer scheduler kernel. Everything
	// marked //txgc:owner shard below is part of the same discipline: the
	// runner, inside (*shard).run under the runner flag, owns it; everyone
	// else goes through the mailbox. txgc-lint's shardowned analyzer
	// enforces the access side of that contract statically.
	sched *core.Scheduler //txgc:owner shard
	mb    *ring.Mailbox[request, reply]
	// running is the runner flag: whoever swaps it false→true is the ring's
	// consumer and the scheduler's owner until it stores false again. The
	// shutdown in Close takes it for good.
	running atomic.Bool
	// done is closed once the shard has shut down (shutdown).
	done chan struct{}
	// depth counts requests enqueued (or blocked enqueuing) and not yet
	// picked up by a runner — the submission backlog surfaced in
	// Stats.QueueDepth for admission-control decisions.
	depth atomic.Int64
	// preparedN is the number of prepared-but-undecided sub-transactions
	// currently pinned on this shard (Stats.PreparedByShard). Only the
	// runner writes it, but the atomic type licenses gauge reads from
	// anywhere — the shardowned analyzer exempts atomics.
	preparedN atomic.Int64 //txgc:owner shard
	// retainedN mirrors the scheduler's retained-completed count for
	// lock-free reads (Engine.RetainedCounts, the governor's trigger); the
	// runner refreshes it after every run.
	retainedN atomic.Int64
	// sinceSweep counts completions/aborts since the last GC sweep.
	sinceSweep int //txgc:owner shard
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
	// final is the scheduler's last Stats, published via close(done);
	// readers synchronize on <-done before touching it.
	final core.Stats //txgc:owner shard

	// jr is this shard's durability seam (journal.go) — the only way the
	// shard reaches the store.
	jr journal //txgc:owner shard
}

// testHookRoundTrip, when non-nil, runs on the submitting goroutine for
// every request start publishes: the round-trip counter of the batch-window
// tests and benchmark.
var testHookRoundTrip func(sh *shard)

// start publishes a request that expects a reply, without waiting for it;
// await redeems the call. The call is unpublished (sh nil) when the shard
// shut down while its ring was full.
func (sh *shard) start(req request) call {
	if hook := testHookRoundTrip; hook != nil {
		hook(sh)
	}
	sh.depth.Add(1)
	tk, ok := sh.mb.Start(req, sh.done)
	if !ok {
		// Never published: no runner will ever decrement for it.
		sh.depth.Add(-1)
		return call{}
	}
	return call{sh: sh, tk: tk}
}

// do sends a request and waits for its reply. ok=false means the shard
// shut down without serving the request (Close raced the caller). The
// round-trip is one ring cell: claim, publish, then wait for the reply to
// be written back into it — running the shard itself if no one else does
// — and nothing is allocated. A request published but never served (the
// shutdown drain already ran) leaves its cell abandoned; by then every
// later submission fails fast on sh.done, so the ring is garbage either
// way. Its depth decrement belongs to whoever drains the cell, which may be
// no one — Stats reports dead shards at zero, so the phantom count is
// invisible.
func (sh *shard) do(req request) (reply, bool) {
	cs := [1]call{sh.start(req)}
	await(cs[:])
	return cs[0].redeem()
}

// call is one request a submitter published to a shard and has yet to
// redeem (sh nil: never published). fin records that the reply is in, or
// that the shard shut down without one.
type call struct {
	sh  *shard
	tk  ring.Ticket
	fin bool
}

// open reports whether c still waits for its shard.
func (c *call) open() bool { return c.sh != nil && !c.fin }

// check sets fin if c's reply is in or its shard is gone, and reports it.
func (c *call) check() bool {
	c.fin = c.sh.mb.Replied(c.tk) || c.sh.down()
	return c.fin
}

// down reports whether the shard has shut down.
func (sh *shard) down() bool {
	select {
	case <-sh.done:
		return true
	default:
		return false
	}
}

// redeem takes the reply of a call await finished; ok=false means none
// came back (never published, or lost to Close), and the cell is abandoned.
func (c *call) redeem() (reply, bool) {
	if c.sh == nil {
		return reply{}, false
	}
	return c.sh.mb.Poll(c.tk)
}

// waitSpins is how many times await yields, with nothing answered and no
// shard free to run, before it parks: a run on another goroutine usually
// ends within that many yields.
const waitSpins = 64

// await waits until every open call in cs is answered, or its shard is
// gone. A waiting goroutine checks its calls, then runs the shard of any
// call whose runner flag is free (serve), so it parks only while every
// shard it waits for has a runner — and the batch door, waiting on several
// shards, serves whichever of them is free instead of blocking on the
// first. See serve for why no request is stranded.
func await(cs []call) {
	for spins := 0; ; {
		open, moved := 0, false
		for i := range cs {
			c := &cs[i]
			if !c.open() {
				continue
			}
			if c.check() || c.sh.serve(c) {
				moved = true
				continue
			}
			open++
		}
		switch {
		case open == 0:
			return
		case moved:
			spins = 0
		case spins < waitSpins:
			spins++
			runtime.Gosched()
		default:
			park(cs)
			spins = 0
		}
	}
}

// bells recycles the bells parked submitters sleep on.
var bells = sync.Pool{New: func() any { return ring.NewBell() }}

// testHookPark, when non-nil, runs on a submitter about to sleep in park:
// the park counter of the runner tests and the batch benchmark.
var testHookPark func()

// park sleeps until something await waits for may have changed: a reply to
// one of cs's open calls, a Nudge from a runner leaving one of their shards
// with that call's request next in line, or shutdown. It arms one bell on
// every open call, then looks once more: a reply already in, a free runner
// flag, or a shard shut down means no sleep. Stale rings only cost a loop.
func park(cs []call) {
	b := bells.Get().(*ring.Bell)
	var stop <-chan struct{}
	sleep := true
	for i := range cs {
		c := &cs[i]
		if !c.open() {
			continue
		}
		if stop == nil {
			stop = c.sh.done
		}
		if c.sh.mb.Arm(c.tk, b) || !c.sh.running.Load() || c.check() {
			sleep = false
		}
	}
	if sleep {
		if hook := testHookPark; hook != nil {
			hook()
		}
		b.Sleep(stop)
	}
	for i := range cs {
		if c := &cs[i]; c.sh != nil {
			c.sh.mb.Arm(c.tk, nil)
		}
	}
	bells.Put(b)
}

// testHookReleased, when non-nil, runs on a runner between releasing the
// runner flag and re-checking the ring; testHookServed, at the end of every
// serve, with the requests that serve handled. The runner tests use them.
var (
	testHookReleased func(sh *shard)
	testHookServed   func(sh *shard, handled int)
)

// serve runs the shard on the calling goroutine if its runner flag is free,
// and reports whether it did; c is the caller's open call on this shard.
// The runner drains runs (run) until c's reply is in, serves at most one
// more run if requests are still waiting, then releases the flag and
// re-checks the ring. A shard that shut down keeps its flag.
//
// Why no request is stranded. A producer publishes its request (a store
// to the cell's sequence), then checks the flag; a runner releases the flag
// (a store), then re-checks the ring (a load of the oldest waiting cell).
// All four are sequentially consistent atomics, like the waiter handshake
// inside the ring, so the two loads cannot both miss the other side's
// store: either the producer sees the flag free and takes it, or the runner
// sees the request. A runner that sees one hands off with Nudge: it rings
// the bell of the oldest waiting request whose producer parked, and leaves
// the rest to producers that have not parked, which come back to the flag
// by themselves. Parking is the same pair once more: a producer arms its
// bell on every call it waits for, then checks their flags; a leaving
// runner releases the flag, then reads the bells. The producer woken takes
// the flag, and its run starts at or before its own request, so each
// hand-off moves the ring on. A parked producer further back sleeps until
// a reply or a hand-off reaches it; Nudge looks past requests with no bell
// armed on them. Every producer of a request in the ring comes back for it
// (the engine posts no fire-and-forget requests), so the ring never holds a
// request that no one will run. No submitter holds two cells on one ring
// (beginCross explains why), so none can wait on itself for a free cell.
//
// Bounded runners. A runner's run starts at the oldest request, so its own
// is answered within ⌈position/runLength⌉ runs, after which it serves at
// most the rest of that run and one more: under load the ring passes from
// submitter to submitter instead of pinning one of them to it.
func (sh *shard) serve(c *call) bool {
	if !sh.running.CompareAndSwap(false, true) {
		return false
	}
	handled := 0
	for beyond := false; ; {
		n, stopped := sh.run()
		handled += n
		if stopped {
			// shutdown answered every request it found, c's among them.
			c.fin = true
			return true
		}
		if sh.mb.Replied(c.tk) {
			if beyond || !sh.mb.Pending() {
				break
			}
			beyond = true
		}
	}
	c.fin = true
	sh.running.Store(false)
	if hook := testHookReleased; hook != nil {
		hook(sh)
	}
	sh.mb.Nudge()
	if hook := testHookServed; hook != nil {
		hook(sh, handled)
	}
	return true
}

// run is one turn of the runner, under the runner flag: drain a run of up
// to runLength requests from the ring, apply each and reply, then do the
// housekeeping — flush, sweep, the retained gauge, the cross registry's
// clean reports — once for the whole run. No timer is needed for registry
// upkeep. What this shard owes the registry changes only when it commits a
// cross sub-transaction, or when the active ancestor keeping a committed
// sub-transaction dirty terminates here (completes, is rejected, or is
// aborted). Both happen while it serves a request, and every run that
// served one ends in reportCrossClean. Once the engine is closed the first
// runner shuts the shard down instead (stopped) and keeps the flag.
func (sh *shard) run() (handled int, stopped bool) {
	if sh.eng.closed.Load() {
		sh.shutdown()
		return 0, true
	}
	for ; handled < runLength; handled++ {
		req, tk, _, ok := sh.mb.Next()
		if !ok {
			break
		}
		sh.depth.Add(-1)
		sh.handle(req, tk)
	}
	if handled == 0 {
		return 0, false
	}
	// Buffered frames reach the OS, so a process kill loses at most the
	// unsynced fsync batch, never the unflushed one.
	sh.jr.batchEnd()
	// Amortized GC between runs: replies are already out, so sweep cost
	// never lands on the latency of a submission the runner served for
	// someone else.
	sh.maybeSweep()
	if n := int64(sh.sched.NumCompleted()); n > sh.retainedN.Swap(n) {
		sh.eng.retentionGrew()
	}
	// Registry upkeep: report committed cross sub-transactions whose
	// ancestor set froze, so the registry can retire them and unblock
	// deletion of their labeled successors.
	sh.reportCrossClean()
	return handled, false
}

func (sh *shard) handle(req request, tk uint64) {
	switch req.kind {
	case reqStep:
		sh.mb.Reply(tk, reply{res: sh.applyOne(req.step)})
	case reqBatch:
		for k, st := range req.steps {
			if req.owns(k) {
				req.out[k] = sh.applyOne(st)
			}
		}
		sh.mb.Reply(tk, reply{})
	case reqStats:
		sh.mb.Reply(tk, reply{stats: sh.sched.Stats(), n: int64(sh.sched.NumCompleted())})
	case reqBeginSub:
		sh.mb.Reply(tk, reply{res: sh.applyBeginSub(req.step)})
	case reqPrepareSub:
		sh.mb.Reply(tk, reply{res: sh.applyPrepareSub(req.step)})
	case reqCommitSub:
		sh.mb.Reply(tk, reply{res: sh.applyCommitSub(req.step.Txn, req.decisionDurable)})
	case reqAbortSub:
		var n int64
		if sh.applyAbortSub(req.step.Txn) {
			n = 1
		}
		sh.mb.Reply(tk, reply{n: n})
	case reqOldest:
		sh.mb.Reply(tk, reply{actives: sh.sched.OldestActives(governorCandidates)})
	case reqSweep:
		n := sh.sweep()
		// Refresh the retained gauge before replying: the governor reads it
		// right after the sweep returns, and the run's own refresh only
		// happens once the whole run drains.
		sh.retainedN.Store(int64(sh.sched.NumCompleted()))
		sh.mb.Reply(tk, reply{n: n})
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
		return errResult(step, err)
	}
	res, err := sh.sched.Apply(step)
	if err != nil {
		if step.Kind != model.KindBegin && sh.txnGone(step.Txn) {
			// The transaction ended between the submitter's route lookup and
			// this step reaching the scheduler — an earlier step of the same
			// batch window was rejected or was its final write, or the
			// governor's abort landed in between. It is dead, not
			// protocol-confused: answer as the per-step path would, so the
			// session learns its transaction is gone (and, for a reap, why).
			return eng.deadTxn(step)
		}
		// The scheduler refused to process the step at all (duplicate
		// BEGIN, step for a finished transaction, bad kind): a protocol
		// violation, state unchanged.
		//lint:ignore hotpath-fmt protocol-violation path: accepted steps never reach this return
		return errResult(step, fmt.Errorf("engine: %w: %v", ErrProtocol, err))
	}
	if eng.cfg.Log != nil {
		eng.cfg.Log.Append(step, res.Accepted)
	}
	out = Result{Step: step, Aborted: res.Aborted, CompletedTxn: res.CompletedTxn}
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
			out = errResult(step, sh.jr.refusal(step))
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
		sh.sinceSweep++
	}
	if res.Aborted != model.NoTxn {
		sh.sinceSweep++
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
		return errResult(step, err)
	}
	if _, err := sh.sched.BeginCross(step); err != nil {
		return errResult(step, fmt.Errorf("engine: %w: %v", ErrProtocol, err))
	}
	if sh.eng.cfg.Log != nil {
		sh.eng.cfg.Log.Append(step, true)
	}
	if sh.jr.record(store.RecBeginSub, step.Txn, 0, step.Entities) != nil {
		// Strict mode: the sub-begin could not be made durable, so refuse it
		// and let the coordinator abort the siblings (see applyOne).
		return errResult(step, sh.jr.refusal(step))
	}
	return answer(step, model.NoTxn, nil)
}

// applyPrepareSub votes on this shard's slice of a cross final write. A
// YES vote logs the write at its conflict position (the arcs go into the
// graph now; a later ABORT excludes the transaction via MarkAborted) and
// pins the sub-node.
func (sh *shard) applyPrepareSub(step model.Step) Result {
	if err := sh.jr.refusal(step); err != nil {
		return errResult(step, err)
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
		return errResult(step, fmt.Errorf("engine: %w: %v", ErrProtocol, err))
	}
	switch vote {
	case core.VoteYes:
		if sh.jr.record(store.RecPrepare, step.Txn, 0, step.Entities) != nil {
			// The YES vote could not be made durable, so it must never
			// reach the coordinator: release the sub-transaction locally
			// and answer with the failure (the coordinator then aborts the
			// siblings).
			sh.applyAbortSub(step.Txn)
			return answer(step, step.Txn, sh.jr.refusal(step))
		}
		if sh.eng.cfg.Log != nil {
			sh.eng.cfg.Log.Append(step, true)
		}
		return answer(step, model.NoTxn, nil)
	case core.VoteCrossCycle:
		return answer(step, step.Txn, stepErr(step, ErrCrossCycle))
	default: // VoteLocalCycle
		return answer(step, step.Txn, stepErr(step, ErrCycle))
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
		return answer(model.Step{}, id, sh.jr.refusal(model.Step{Kind: model.KindWriteFinal, Txn: id}))
	}
	res, err := sh.sched.CommitPrepared(id)
	if err != nil {
		return errResult(model.Step{}, fmt.Errorf("engine: %w: %v", ErrProtocol, err))
	}
	sh.preparedN.Add(-1)
	sh.sinceSweep++
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
	sh.sinceSweep++
	sh.jr.record(store.RecAbort, id, 0, nil)
	return true
}

// answer is a Result for a step that completed nothing: err (nil when it
// was accepted) and the transaction it aborted (NoTxn: none).
func answer(step model.Step, aborted model.TxnID, err error) Result {
	return Result{Step: step, Aborted: aborted, CompletedTxn: model.NoTxn, Err: err}
}

// errResult is the answer to a step the shard could not process: nothing
// was aborted or completed by it.
func errResult(step model.Step, err error) Result { return answer(step, model.NoTxn, err) }

// closedResult is what every door answers for a step the engine can no
// longer run: closed before the submit, or closed with the request queued.
func closedResult(step model.Step) Result { return errResult(step, stepErr(step, ErrClosed)) }

// sweep runs the deletion policy now, then lets the journal checkpoint what
// it retained, and reports how many transactions were deleted.
func (sh *shard) sweep() int64 {
	n := int64(len(sh.sched.SweepNow()))
	sh.sinceSweep = 0
	sh.jr.swept(sh.sched)
	return n
}

func (sh *shard) maybeSweep() {
	if sh.eng.cfg.Policy != nil && sh.sinceSweep >= sh.eng.cfg.SweepEveryCompletions {
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

// testHookCrossClean, when non-nil, runs on the runner at the end
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

// shutdown fails still-queued requests so no client blocks forever,
// publishes final stats, and closes done. A request published after this
// final drain is simply lost; its sender stops waiting on sh.done.
func (sh *shard) shutdown() {
	defer close(sh.done)
	// A graceful close is a sync point: everything acknowledged is durable
	// when Close returns.
	sh.jr.sync()
	sh.final = sh.sched.Stats()
	for {
		req, tk, _, ok := sh.mb.Next()
		if !ok {
			return
		}
		sh.depth.Add(-1)
		if req.kind == reqBatch {
			req.refuse()
			sh.mb.Reply(tk, reply{stats: sh.final})
			continue
		}
		// A drained stats request can still be answered truthfully; every
		// other kind is refused.
		sh.mb.Reply(tk, reply{stats: sh.final, res: closedResult(req.step)})
	}
}
