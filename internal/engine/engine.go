package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/emit"
	"repro/internal/model"
	"repro/internal/store"
	"repro/internal/trace"
)

// Config configures an Engine.
type Config struct {
	// Shards is the number of entity partitions, each with its own
	// scheduler (default 1).
	Shards int
	// Policy builds the deletion policy for one shard; each shard gets its
	// own instance. nil means never delete (NoGC).
	Policy func() core.Policy
	// RetentionWatermark, if > 0, enables the retention governor: once a
	// shard's run grows the engine-wide retained count (sum of
	// Gauges().Retained) to or past it, the next submission to finish aborts
	// the oldest non-PriorityHigh, unprepared active — the straggler pinning
	// completed predecessors (Theorem 1) — as a context-deadline abort
	// would, and sweeps, until the count is back under. No timer: an idle
	// engine reaps nothing. Requires a Policy, or reaping frees nothing.
	RetentionWatermark int
	// Log, if non-nil, records every applied step for offline refereeing
	// (trace.CheckAcceptedCSR). Sub-transactions of a cross-partition
	// transaction log under the logical TxnID, so the referee's conflict
	// graph folds them into one logical node by construction.
	Log *trace.SafeLog
	// Bus, if non-nil, receives a lifecycle event for every begin, accepted
	// step, veto, prepare, commit, abort, and sweep, stamped with the
	// shard it happened on. The bus never blocks the hot path; the caller
	// owns its lifecycle (close it after Engine.Close so the tail of the
	// stream is drained).
	Bus *emit.Bus
	// Store, if non-nil, is the durability layer: each shard journals the
	// accepted subschedule it applies — begins, reads, final writes, 2PC
	// begin/prepare/commit, and every abort — to its own write-ahead log,
	// and at a sweep checkpoints its retained state once the log since the
	// last checkpoint outgrew that snapshot (what the deletion policy proved
	// safe to forget is exactly what is safe to truncate from the log). Open
	// recovers from it before any shard goes live. Store.NumShards must equal Shards.
	Store store.Store
	// WALSyncEvery batches fsyncs on the journaling hot path: a shard
	// forces its log once this many records accumulated since the last
	// sync (default 64; acknowledged-but-unsynced records can be lost to a
	// crash). 1 is strict mode: every record is durable before its reply.
	// PREPARE votes and COMMIT decisions are always synced immediately
	// regardless — 2PC safety never rides the batch. Ignored without a
	// Store.
	WALSyncEvery int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.WALSyncEvery <= 0 {
		c.WALSyncEvery = 64
	}
	return c
}

// Outcome is a coarse classification of one submission, derived from
// Result.Err (the single source of truth — see errors.go) by
// Result.Outcome.
type Outcome uint8

const (
	// OutcomeAccepted: the step was applied and accepted (Err == nil).
	OutcomeAccepted Outcome = iota
	// OutcomeRejected: the step was refused and Aborted names the victim;
	// Err wraps ErrCycle, ErrCrossCycle, ErrMisroute, or ErrTxnAborted.
	OutcomeRejected
	// OutcomeError: the submission could not be processed and state is
	// unchanged; Err wraps ErrProtocol or ErrClosed.
	OutcomeError
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeAccepted:
		return "accepted"
	case OutcomeRejected:
		return "rejected"
	case OutcomeError:
		return "error"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Result reports the engine-level effect of one submission: the answer,
// not the question. A door answers steps[i] with the i-th Result, and the
// caller, which holds the step, pairs them by position. Err is nil iff the
// step was applied and accepted; otherwise it wraps one member of the error
// taxonomy (errors.go) plus the step's context, so its text names the
// step's transaction. Nothing else records the verdict: Outcome and
// Accepted read it from Err.
type Result struct {
	// Aborted is the transaction aborted by this submission (NoTxn
	// otherwise). The step that kills a transaction carries the specific
	// cause (ErrCycle, ErrCrossCycle, ErrMisroute); later steps addressed
	// to the dead transaction carry ErrTxnAborted.
	Aborted model.TxnID
	// CompletedTxn is set when the submission completed its transaction
	// (for a cross-partition transaction, that is its final write's
	// two-phase commit reaching the COMMIT decision).
	CompletedTxn model.TxnID
	Err          error
}

// Outcome classifies the result by its Err: nil is accepted, an error
// wrapping ErrProtocol or ErrClosed is an error (nothing changed), and any
// other error is a rejection.
func (r Result) Outcome() Outcome {
	switch {
	case r.Err == nil:
		return OutcomeAccepted
	case errors.Is(r.Err, ErrProtocol), errors.Is(r.Err, ErrClosed):
		return OutcomeError
	default:
		return OutcomeRejected
	}
}

// Accepted reports whether the step was applied and accepted.
func (r Result) Accepted() bool { return r.Err == nil }

// Priority is what a BEGIN tells the retention governor about its transaction.
type Priority uint8

const (
	// PriorityNormal transactions may be reaped by the retention governor.
	PriorityNormal Priority = iota
	// PriorityHigh transactions are never reaped (Config.RetentionWatermark).
	PriorityHigh
)

// Stats is a point-in-time aggregate of engine counters. The scalar fields
// are maintained as lock-free atomics on the submit path; the per-shard
// scheduler stats are read by a snapshot request under each shard's lock.
//
// The scalar step/transaction counters are logical: a cross-partition
// transaction counts one BEGIN, one accepted final write, and one
// completion no matter how many shards participate, while the PerShard
// scheduler counters see one sub-transaction per participant. Merged
// therefore over-counts relative to the logical fields whenever cross
// traffic ran.
type Stats struct {
	Submitted int64 // steps submitted through either door (per step or batched)
	Accepted  int64 // steps applied and accepted
	Rejected  int64 // steps refused (cycle, cross-cycle, misroute, dead txn)
	Completed int64 // transactions completed
	Aborted   int64 // transactions aborted, all causes
	Deleted   int64 // nodes reclaimed by deletion-policy sweeps (Merged.Deleted)
	Sweeps    int64 // deletion-policy sweeps executed (Merged.Sweeps)
	CrossTxns int64 // cross-partition transactions begun
	Shed      int64 // always 0; kept while benchmark/ reads it (ROADMAP item 10)
	Reaped    int64 // stragglers aborted by the retention governor

	// Prepares counts PREPARE requests sent to participants (one per
	// participating shard per cross-partition final write).
	Prepares int64
	// CrossAborts counts logical cross-partition transactions aborted:
	// NO votes (local or cross-shard cycle at prepare), registry vetoes on
	// reads, misroutes, and client aborts.
	CrossAborts int64

	Misroutes int64 // partition-discipline violations

	// PreparedByShard is the instantaneous number of prepared-but-
	// undecided sub-transactions pinned on each shard, indexed by shard.
	PreparedByShard []int64

	// QueueDepth is the instantaneous number of submitters waiting for
	// each shard's lock, indexed by shard: a lock-wait gauge, maintained as
	// a cheap atomic on the submit path.
	QueueDepth []int64

	// PerShard are the underlying scheduler counters, indexed by shard.
	PerShard []core.Stats
	// Merged is the sum of PerShard (peaks add; see core.Stats.Merge).
	Merged core.Stats
}

type routeKind uint8

const (
	routeLocal routeKind = iota
	routeCross
)

// route is the engine's record of where a live transaction executes. pri is
// the priority the transaction began with; the retention governor consults
// it to exempt PriorityHigh transactions from straggler reaping.
type route struct {
	kind  routeKind
	shard int
	ct    *crossTxn
	pri   Priority
}

// Engine is the concurrent sharded scheduler. Its submission doors may be
// called from any number of goroutines; a submission still in flight when
// Close runs is answered with ErrClosed.
type Engine struct {
	cfg    Config
	shards []*shard
	// routes maps live TxnID → route (striped; see routemap.go).
	routes routeMap
	// registry is the cross-arc registry consulted by every shard's
	// scheduler (core.CrossTracker) and by the 2PC driver.
	registry *crossRegistry
	closed   atomic.Bool

	// reaped remembers recently governor-aborted TxnIDs so a straggler's
	// session learns *why* it died (ErrStragglerAborted) instead of the
	// generic ErrTxnAborted; reapedN is the Stats.Reaped counter. govWanted
	// is a shard's request for a governor pass, claimed by the next
	// submitter to finish (governIfWanted); govMu serializes passes.
	reaped    reapedSet
	reapedN   atomic.Int64
	govWanted atomic.Bool
	govMu     sync.Mutex

	submitted, accepted, rejected    atomic.Int64
	completed, aborted               atomic.Int64
	crossTxns, prepares, crossAborts atomic.Int64
	misroutes                        atomic.Int64
}

// New starts an engine with cfg's shards ready. It is Open
// without the recovery report, and panics if recovery fails — which is only
// possible with a Config.Store whose medium is corrupt; use Open to handle
// that case.
func New(cfg Config) *Engine {
	e, _, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Open starts an engine. With a Config.Store it first recovers: every
// shard's scheduler is rebuilt from its checkpoint plus WAL tail, and
// orphaned transactions are resolved (see recovery.go), before Open
// returns and any submission can run a shard. The engine starts no
// goroutine: each submitter takes its shard's lock and applies its own
// request (see shard.run). The report describes what was recovered
// (empty-but-non-nil without a Store).
func Open(cfg Config) (*Engine, *RecoveryReport, error) {
	cfg = cfg.withDefaults()
	if cfg.Store != nil && cfg.Store.NumShards() != cfg.Shards {
		return nil, nil, fmt.Errorf("engine: store has %d shards, config wants %d", cfg.Store.NumShards(), cfg.Shards)
	}
	e := &Engine{cfg: cfg, registry: newCrossRegistry()}
	e.routes.init()
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		e.shards[i] = &shard{
			idx: i,
			eng: e,
			jr:  openJournal(cfg.Store, i, cfg.WALSyncEvery),
		}
	}
	rep, err := e.recover()
	if err != nil {
		return nil, nil, err
	}
	return e, rep, nil
}

// schedConfig is the scheduler configuration of shard i with the given
// cross tracker and emitter (recovery replays with both nil, then swaps in
// the live ones).
func (e *Engine) schedConfig(i int, tracker core.CrossTracker, em emit.Emitter) core.Config {
	var pol core.Policy
	if e.cfg.Policy != nil {
		pol = e.cfg.Policy()
	}
	return core.Config{Policy: pol, SweepManual: true, Cross: tracker, Emitter: em}
}

// liveTracker is the cross tracker a live shard scheduler consults. A
// single shard can never see a cross transaction; leaving the tracker nil
// keeps its scheduler entirely label-free.
func (e *Engine) liveTracker() core.CrossTracker {
	if e.cfg.Shards > 1 {
		return e.registry
	}
	return nil
}

// NumShards returns the number of shards.
func (e *Engine) NumShards() int { return len(e.shards) }

// partitionOf returns the shard owning entity x.
func (e *Engine) partitionOf(x model.Entity) int {
	return int(uint32(x)) % len(e.shards)
}

// beginRoute classifies a BEGIN's declared footprint without allocating:
// home is the owning shard of a partition-local footprint (or the ID-hash
// fallback for an undeclared one) and cross reports a footprint spanning
// more than one partition.
func (e *Engine) beginRoute(step model.Step) (home int, cross bool) {
	xs := step.Entities
	if len(xs) == 0 {
		// Undeclared footprint: hash the transaction ID; the transaction
		// must then happen to stay inside that partition or its first
		// foreign access will misroute-abort it.
		return int(uint64(step.Txn) % uint64(len(e.shards))), false
	}
	home = e.partitionOf(xs[0])
	for _, x := range xs[1:] {
		if e.partitionOf(x) != home {
			return home, true
		}
	}
	return home, false
}

// SubmitCtx is SubmitPriority at PriorityNormal.
func (e *Engine) SubmitCtx(ctx context.Context, step model.Step) Result {
	return e.SubmitPriority(ctx, step, PriorityNormal)
}

// SubmitPriority and SubmitBatchInto are the engine's two doors, and both
// run one loop (submit). SubmitPriority submits one step under ctx, with a
// priority that a BEGIN gives its transaction (PriorityHigh exempts it from
// the retention governor). SubmitBatchInto submits a client's steps at
// PriorityNormal with no deadline and appends one Result per step to dst in
// submission order (a reused dst with spare capacity keeps it
// allocation-free): the Result appended for steps[i] answers steps[i]. A
// Result does not repeat its step.
//
// Steps of one transaction must be submitted in order, as a client session
// would: each after the previous one's Result or behind it in the same
// batch. Under ctx, a BEGIN with a dead context is refused before it begins,
// an access step with one aborts its transaction on every shard, and a
// cross-partition final write that sees cancellation between PREPARE and
// the decision aborts instead of committing; the Result's Err then wraps
// both ErrTxnAborted and the context's cause.
//
// The loop gathers admitted steps into a window and sends it to every shard
// it touches in one visit per shard, each shard seeing its steps in
// submission order: a step alone is a window of one, and sixteen interleaved
// partition-local transactions over four shards take four visits. It sends
// the window before every step the engine answers without a shard (a cross
// final write, a misroute, a step of a dead transaction, a duplicate BEGIN),
// before a BEGIN that reuses a live ID, and before a cross read
// whose transaction has a read bound for another shard in the window; a
// cross BEGIN's sub-begins go ahead of it.
//
// The window is applied shard by shard, so two cross transactions' reads
// bound for different shards may reach the cross registry in another order
// than submitted, and the registry vetoes whichever read closes the cycle
// second. A batch may therefore veto one cross transaction where the same
// steps submitted one at a time veto the other, as two concurrent clients'
// steps may (TestBatchCrossVetoOrder). That freedom is kept: keeping cross
// reads in submission order across shards would end a window at each one.
// Theorem 2 holds either way, since a deleting engine decides every batch
// as one that never deletes. A step behind the end of its own transaction in
// a batch is answered as if submitted alone afterwards: rejected, wrapping
// ErrTxnAborted (ErrStragglerAborted after a reap); one behind its own
// refused BEGIN reports ErrProtocol, as the BEGIN did.
//
// Both doors end by running a pending governor pass
// (Config.RetentionWatermark).
func (e *Engine) SubmitPriority(ctx context.Context, step model.Step, pri Priority) Result {
	steps := [1]model.Step{step}
	var out [1]Result
	return e.submit(ctx, pri, out[:0], steps[:])[0]
}

// SubmitBatchInto is the batch door; see SubmitPriority.
func (e *Engine) SubmitBatchInto(dst []Result, steps []model.Step) []Result {
	return e.submit(context.Background(), PriorityNormal, dst, steps)
}

// submit is both doors' loop: it admits each step, gathers the admitted ones
// into a window, and applies the window wherever admit answers a step itself
// or the window cannot take the next one.
func (e *Engine) submit(ctx context.Context, pri Priority, dst []Result, steps []model.Step) []Result {
	var w window
	settle := func() { dst = e.apply(&w, dst, steps) }
	for i := range steps {
		shard, ct, ok, res := e.admit(ctx, steps[i], pri, settle)
		if !ok {
			dst = append(dst, res)
			continue
		}
		if !w.add(i, shard, ct) {
			settle()
			w.add(i, shard, ct)
		}
	}
	settle()
	e.governIfWanted()
	return dst
}

// admit is the one decision submit makes about a step. Either it answers
// the step itself (ok=false) — closed engine, dead context, duplicate or
// cross-partition BEGIN (its fan-out runs here), dead transaction, cross
// final write (its two-phase commit runs here), misroute, or a kind outside
// the basic model — or it registers the step and names the shard that must
// apply it (ok=true): a partition-local step, or a cross transaction's read
// on one of its participants, for which ct names the transaction.
//
// settle lands what the caller has admitted but not yet applied. admit
// calls it before every answer, so answers keep submission order; before
// an answered access step acts; and before it looks at a BEGIN of a live
// ID, which the pending work may complete or abort. Any other BEGIN cannot
// touch the pending work and is decided first: a local one before the
// pending work lands, a cross one's sub-begins applied before it (see
// beginCross). That is the order the shards' BeginSeq, and so the
// governor's choice of straggler, follow.
func (e *Engine) admit(ctx context.Context, step model.Step, pri Priority, settle func()) (shard int, ct *crossTxn, ok bool, res Result) {
	if e.closed.Load() {
		settle()
		return 0, nil, false, closedResult(step)
	}
	e.submitted.Add(1)
	if ctx.Err() != nil {
		settle()
		e.rejected.Add(1)
		if step.Kind != model.KindBegin {
			// Cancellation kills the whole transaction, not just this step.
			e.Abort(step.Txn)
		}
		// Cause, not Err: a derived context cancelled for a deadline still
		// reports context.DeadlineExceeded.
		return 0, nil, false, answer(step.Txn, ctxErr(step, context.Cause(ctx)))
	}
	switch step.Kind {
	case model.KindBegin:
		if _, live := e.routes.load(step.Txn); live {
			settle()
		}
		// A reused TxnID sheds the reaped mark of its dead predecessor: the
		// new incarnation must never inherit a straggler verdict.
		e.reaped.remove(step.Txn)
		home, cross := e.beginRoute(step)
		switch {
		case cross:
			res = e.beginCross(step, pri, settle)
		case !e.routes.storeNew(step.Txn, route{kind: routeLocal, shard: home, pri: pri}):
			res = duplicateBegin(step)
		default:
			return home, nil, true, Result{}
		}
		settle()
		return 0, nil, false, res
	case model.KindRead, model.KindWriteFinal:
		r, live := e.routes.load(step.Txn)
		switch {
		case !live:
			settle()
			return 0, nil, false, e.deadTxn(step)
		case r.kind == routeCross:
			if p := e.partitionOf(step.Entity); step.Kind == model.KindRead && r.ct.participant(p) {
				return p, r.ct, true, Result{}
			}
			// A final write runs the two-phase commit, and a misrouted read
			// aborts on every participant: what is pending lands first.
			settle()
			return 0, nil, false, e.crossStep(ctx, step, r.ct)
		case e.misroutedStep(step, r.shard):
			settle()
			// What was pending may have ended the transaction (a batched
			// step behind its own abort or final write): then it is dead,
			// as it would be found if submitted alone, not misrouted.
			if _, live := e.routes.load(step.Txn); !live {
				return 0, nil, false, e.deadTxn(step)
			}
			return 0, nil, false, e.misroute(step, r)
		}
		return r.shard, nil, true, Result{}
	default:
		settle()
		return 0, nil, false, errResult(fmt.Errorf("engine: %v: step kind %v not part of the basic model: %w", step, step.Kind, ErrProtocol))
	}
}

// landed is the last word on a step a shard applied. A BEGIN the shard
// refused (its ID collides with a retained completed transaction, or the
// engine closed under it) drops the route admit registered, or the ID
// would stay poisoned forever. A cross read the shard rejected (a local
// cycle, or the registry vetoed an inter-shard arc) cost the transaction
// only that shard's sub-node; landed aborts it on the other participants,
// unless it is already decided (Engine.Abort got there first, or an
// earlier rejected read of the same window did).
func (e *Engine) landed(step *model.Step, res *Result) {
	switch {
	case step.Kind == model.KindBegin && res.Outcome() == OutcomeError:
		e.routes.delete(step.Txn)
	case step.Kind == model.KindRead && res.Aborted == step.Txn:
		if r, live := e.routes.load(res.Aborted); live && r.kind == routeCross {
			ct := r.ct
			ct.mu.Lock()
			if !ct.done {
				e.finishCrossAbort(ct, e.partitionOf(step.Entity))
			}
			ct.mu.Unlock()
		}
	}
}

// duplicateBegin answers a BEGIN whose ID is still routed, or still tracked
// by the cross registry.
func duplicateBegin(step model.Step) Result {
	return errResult(fmt.Errorf("engine: duplicate BEGIN for T%d: %w", step.Txn, ErrProtocol))
}

// windowCap bounds a window that touches more than one shard, since each
// shard's share of it is a bit mask over the window's positions. A window
// on one shard needs no mask and has no bound.
const windowCap = 64

// window is submit's admitted but unapplied work: steps[start:
// start+n], every one admitted, split into one part per shard it touches.
// Every step the engine answers itself settles the window first, so the
// window is always one contiguous span, and its results land at the end of
// dst in the same order. reads names, for each cross transaction with a
// read in the window, the one shard its reads go to.
type window struct {
	start, n int
	parts    [windowCap]part
	nparts   int
	reads    [windowCap]crossRead
	nreads   int
}

// crossRead records that the window holds reads of ct bound for shard.
type crossRead struct {
	ct    *crossTxn
	shard int
}

// part is one shard's share of a window: the bit for each of its steps'
// positions.
type part struct {
	shard int
	own   uint64
}

// add appends steps[i], admitted to shard, to the window; ct names the
// cross transaction when the step is one of its reads. It reports false,
// adding nothing, when the window must be applied first: a window of
// windowCap steps takes no step for a second shard, and a window holding a
// read of ct bound for one shard takes none for another.
func (w *window) add(i, shard int, ct *crossTxn) bool {
	if w.n == 0 {
		w.start, w.nparts, w.nreads = i, 0, 0
	}
	p := 0
	for p < w.nparts && w.parts[p].shard != shard {
		p++
	}
	if w.n >= windowCap && (w.nparts > 1 || p == w.nparts) {
		return false
	}
	if ct != nil {
		r := 0
		for r < w.nreads && w.reads[r].ct != ct {
			r++
		}
		switch {
		case r < w.nreads:
			if w.reads[r].shard != shard {
				return false
			}
		case r == len(w.reads):
			return false
		default:
			w.reads[r] = crossRead{ct: ct, shard: shard}
			w.nreads++
		}
	}
	if p == w.nparts {
		w.parts[p] = part{shard: shard}
		w.nparts++
	}
	w.parts[p].own |= 1 << w.n
	w.n++
	return true
}

// testHookWindow, when non-nil, runs on the submitting goroutine for every
// window apply sends: the window counter of the batch benchmarks.
var testHookWindow func()

// apply runs the window and empties it: one reqBatch visits every shard the
// window touches, the shards whose lock is free first, in one pass that
// never waits, then the rest in turn. Each shard writes its steps' results
// into their own places in dst, so nothing is merged or copied afterwards.
// A window on one shard goes out unmasked, the caller's span as it stands.
func (e *Engine) apply(w *window, dst []Result, steps []model.Step) []Result {
	if w.n == 0 {
		return dst
	}
	if hook := testHookWindow; hook != nil {
		hook()
	}
	base := len(dst)
	dst = slices.Grow(dst, w.n)[:base+w.n]
	batch := request{kind: reqBatch, steps: steps[w.start : w.start+w.n], out: dst[base:]}
	parts := w.parts[:w.nparts]
	if len(parts) == 1 {
		parts[0].own = 0
	}
	left := parts[:0]
	for _, p := range parts {
		batch.own = p.own
		if ok, ran := e.shards[p.shard].tryRun(&batch); !ran {
			left = append(left, p)
		} else if !ok {
			batch.refuse()
		}
	}
	for _, p := range left {
		batch.own = p.own
		if !e.shards[p.shard].run(&batch) {
			// The engine closed first: nothing else writes these results.
			batch.refuse()
		}
	}
	for i := range batch.out {
		e.landed(&batch.steps[i], &batch.out[i])
	}
	w.n = 0
	return dst
}

// misroutedStep reports whether a partition-local transaction's step
// touches an entity outside its home shard.
func (e *Engine) misroutedStep(st model.Step, home int) bool {
	if st.Kind == model.KindRead {
		return e.partitionOf(st.Entity) != home
	}
	for _, x := range st.Entities {
		if e.partitionOf(x) != home {
			return true
		}
	}
	return false
}

// deadTxn rejects a step addressed to a transaction that is no longer live:
// with stragglerErr when the retention governor reaped it (so the session
// learns why), plain ErrTxnAborted otherwise.
func (e *Engine) deadTxn(step model.Step) Result {
	e.rejected.Add(1)
	if e.reaped.contains(step.Txn) {
		return answer(step.Txn, stragglerErr(step))
	}
	return answer(step.Txn, stepErr(step, ErrTxnAborted))
}

// misroute aborts a partition-local transaction that touched a foreign
// entity: the partition discipline is what makes per-shard acyclicity
// equal global CSR for local transactions, so it must be enforced, not
// trusted.
func (e *Engine) misroute(step model.Step, r route) Result {
	e.misroutes.Add(1)
	e.rejected.Add(1)
	if e.cfg.Bus != nil {
		e.cfg.Bus.Emit(emit.Event{Kind: emit.KindVeto, Class: emit.ClassMisroute,
			Shard: int32(r.shard), Txn: step.Txn})
	}
	if e.cfg.Log != nil {
		// A rejected step marks the transaction aborted in the trace.
		e.cfg.Log.Append(step, false)
	}
	e.abortLocal(r.shard, step.Txn)
	return answer(step.Txn, stepErr(step, ErrMisroute))
}

// Abort aborts a live transaction (e.g. on client disconnect). For a
// cross-partition transaction it releases the sub-transactions — pins
// included — on every participant, whatever state the transaction is in.
// It returns false if the transaction is unknown or already decided.
func (e *Engine) Abort(id model.TxnID) bool {
	r, ok := e.routes.load(id)
	if !ok {
		return false
	}
	if r.kind == routeCross {
		return e.crossClientAbort(r.ct)
	}
	if !e.abortLocal(r.shard, id) {
		return false
	}
	if e.cfg.Log != nil {
		e.cfg.Log.MarkAborted(id)
	}
	return true
}

// abortLocal aborts a partition-local transaction on its shard and reports
// whether the abort applied; only then does it count the abort and drop the
// route. It does not apply on a closed engine, nor when the transaction
// ended between the route lookup and the shard visit (its final write or a
// rejection landed first), whose step already dropped the route.
func (e *Engine) abortLocal(shard int, id model.TxnID) bool {
	req := request{kind: reqAbortSub, txn: id}
	if !e.shards[shard].run(&req) || !req.aborted {
		return false
	}
	e.aborted.Add(1)
	e.routes.delete(id)
	return true
}

// Stats returns a snapshot of the aggregate counters. It is safe to call
// concurrently with submissions and after Close.
func (e *Engine) Stats() Stats {
	s := Stats{
		Submitted:   e.submitted.Load(),
		Accepted:    e.accepted.Load(),
		Rejected:    e.rejected.Load(),
		Completed:   e.completed.Load(),
		Aborted:     e.aborted.Load(),
		CrossTxns:   e.crossTxns.Load(),
		Reaped:      e.reapedN.Load(),
		Prepares:    e.prepares.Load(),
		CrossAborts: e.crossAborts.Load(),
		Misroutes:   e.misroutes.Load(),
	}
	for _, sh := range e.shards {
		// A closed shard still answers reqStats.
		var st core.Stats
		sh.run(&request{kind: reqStats, stats: &st})
		s.PerShard = append(s.PerShard, st)
		s.Merged.Merge(st)
	}
	s.Deleted, s.Sweeps = s.Merged.Deleted, s.Merged.Sweeps
	s.QueueDepth = e.QueueDepths()
	s.PreparedByShard = e.gauge(func(sh *shard) *atomic.Int64 { return &sh.preparedN })
	return s
}

// gauge reads one lock-free gauge of every shard. A shard that shut down
// reports zero rather than its stale counter: it applies nothing, so its
// backlog is dead; a prepare whose decision Close cut off would pin its
// prepared count forever; and a closed engine retains nothing a client can
// reach.
func (e *Engine) gauge(of func(*shard) *atomic.Int64) []int64 {
	out := make([]int64, len(e.shards))
	for i, sh := range e.shards {
		if !sh.closed.Load() {
			out[i] = of(sh).Load()
		}
	}
	return out
}

// QueueDepths returns, per shard, the instantaneous number of submitters
// waiting for the shard's lock, without taking a lock (Stats.QueueDepth
// fetches the same gauge alongside the heavier scheduler counters).
func (e *Engine) QueueDepths() []int64 {
	return e.gauge(func(sh *shard) *atomic.Int64 { return &sh.depth })
}

// Gauges snapshots the per-shard gauges in the shape the metrics endpoint
// polls at scrape time (emit.GaugeSource), lock-free like QueueDepths.
// Retained counts the completed transactions each shard retains (the
// storage the deletion policy reclaims); every run refreshes it before it
// unlocks, so it trails the scheduler by at most the run in progress.
// Prepared counts the prepared-but-undecided 2PC sub-transactions, each
// pinning its node against deletion.
func (e *Engine) Gauges() emit.GaugeSnapshot {
	gs := emit.GaugeSnapshot{
		QueueDepth:         e.QueueDepths(),
		Retained:           e.gauge(func(sh *shard) *atomic.Int64 { return &sh.retainedN }),
		Prepared:           e.gauge(func(sh *shard) *atomic.Int64 { return &sh.preparedN }),
		RetentionWatermark: int64(e.cfg.RetentionWatermark),
	}
	if e.cfg.Store != nil {
		n := len(e.shards)
		gs.WALAppendedBytes = make([]int64, n)
		gs.WALFsyncs = make([]int64, n)
		gs.CheckpointSeq = make([]int64, n)
		for i := 0; i < n; i++ {
			st := e.cfg.Store.Shard(i).Stats()
			gs.WALAppendedBytes[i] = st.AppendedBytes
			gs.WALFsyncs[i] = st.Fsyncs
			gs.CheckpointSeq[i] = int64(st.CheckpointSeq)
		}
	}
	return gs
}

// Close shuts every shard down: once the engine is marked closed, the next
// run on each shard — Close's own, or one of a submitter still in flight —
// makes the journal durable and marks the shard down, and every later run
// applies nothing. Close returns when every shard is down. Submissions still
// in flight receive ErrClosed; callers should stop submitting first.
func (e *Engine) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	for _, sh := range e.shards {
		sh.run(&request{kind: reqStats}) // the engine is closed: this run shuts the shard down; no one reads its stats
	}
}
