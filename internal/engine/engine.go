package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/emit"
	"repro/internal/model"
	"repro/internal/ring"
	"repro/internal/store"
	"repro/internal/trace"
)

// Config configures an Engine.
type Config struct {
	// Shards is the number of entity partitions / scheduler goroutines
	// (default 1).
	Shards int
	// Policy builds the deletion policy for one shard; each shard gets its
	// own instance. nil means never delete (NoGC).
	Policy func() core.Policy
	// BatchSize caps how many queued steps a shard applies between GC
	// opportunities (default 64).
	BatchSize int
	// QueueDepth is the per-shard submission buffer (default 1024).
	QueueDepth int
	// SweepEveryCompletions is the GC cadence: a shard sweeps once it has
	// accumulated this many completions/aborts since the last sweep
	// (default 8). Lower is tighter memory, higher is faster.
	SweepEveryCompletions int
	// OverloadWatermark, if > 0, enables admission control: a BEGIN routed
	// at a shard whose submission backlog (Stats.QueueDepth) is at or above
	// the watermark is shed with ErrOverload instead of queued — the
	// transaction never begins and no queue slot is consumed. Steps of
	// already-admitted transactions are never shed (they drain the
	// backlog), and a PriorityHigh BEGIN bypasses the watermark.
	OverloadWatermark int
	// RetentionWatermark, if > 0, enables the retention governor: whenever
	// the engine-wide retained completed count (sum of RetainedCounts) sits
	// at or above the watermark, the governor aborts the oldest live
	// straggler — the active transaction with the smallest BeginSeq, which
	// is what pins completed predecessors against deletion (Theorem 1's
	// active-tight-predecessor condition) — through the same machinery as a
	// client's context-deadline abort, then sweeps. PriorityHigh
	// transactions and prepared 2PC sub-transactions are exempt. Requires a
	// Policy: without one nothing is ever deleted, so reaping could never
	// lower retention.
	RetentionWatermark int
	// GovernorInterval is how often the retention governor wakes to check
	// the watermark (default 2ms when RetentionWatermark > 0). Tests drive
	// the governor deterministically with GovernNow and set a long interval.
	GovernorInterval time.Duration
	// Log, if non-nil, records every applied step for offline refereeing
	// (trace.CheckAcceptedCSR). Sub-transactions of a cross-partition
	// transaction log under the logical TxnID, so the referee's conflict
	// graph folds them into one logical node by construction.
	Log *trace.SafeLog
	// Bus, if non-nil, receives a lifecycle event for every begin, accepted
	// step, veto, prepare, commit, abort, shed, and sweep, stamped with the
	// shard it happened on. The bus never blocks the hot path; the caller
	// owns its lifecycle (close it after Engine.Close so the tail of the
	// stream is drained).
	Bus *emit.Bus
	// Store, if non-nil, is the durability layer: each shard journals the
	// accepted subschedule it applies — begins, reads, final writes, 2PC
	// begin/prepare/commit, and every abort — to its own write-ahead log,
	// and checkpoints its retained state after every sweep that follows new
	// records (what the deletion policy proved safe to forget is exactly
	// what is safe to truncate from the log). Open recovers from it before any shard goes
	// live. Store.NumShards must equal Shards.
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
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.SweepEveryCompletions <= 0 {
		c.SweepEveryCompletions = 8
	}
	if c.RetentionWatermark > 0 && c.GovernorInterval <= 0 {
		c.GovernorInterval = 2 * time.Millisecond
	}
	if c.WALSyncEvery <= 0 {
		c.WALSyncEvery = 64
	}
	return c
}

// Outcome is a coarse classification of one submission, derived from
// Result.Err (which is the single source of truth — see errors.go).
type Outcome uint8

const (
	// OutcomeAccepted: the step was applied and accepted (Err == nil).
	OutcomeAccepted Outcome = iota
	// OutcomeRejected: the step was refused and Aborted names the victim;
	// Err wraps ErrCycle, ErrCrossCycle, ErrMisroute, ErrOverload, or
	// ErrTxnAborted.
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

// Result reports the engine-level effect of one submission. Err is nil iff
// the step was applied and accepted; otherwise it wraps one member of the
// error taxonomy (errors.go) plus the step's context.
type Result struct {
	Step    model.Step
	Outcome Outcome
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

// Accepted reports whether the step was applied and accepted.
func (r Result) Accepted() bool { return r.Outcome == OutcomeAccepted }

// Priority classifies a BEGIN for admission control.
type Priority uint8

const (
	// PriorityNormal BEGINs are subject to Config.OverloadWatermark.
	PriorityNormal Priority = iota
	// PriorityHigh BEGINs are admitted even above the overload watermark.
	PriorityHigh
)

// Stats is a point-in-time aggregate of engine counters. The scalar fields
// are maintained as lock-free atomics on the submit path; the per-shard
// scheduler stats are fetched by a snapshot request through each shard's
// queue.
//
// The scalar step/transaction counters are logical: a cross-partition
// transaction counts one BEGIN, one accepted final write, and one
// completion no matter how many shards participate, while the PerShard
// scheduler counters see one sub-transaction per participant. Merged
// therefore over-counts relative to the logical fields whenever cross
// traffic ran.
type Stats struct {
	Submitted int64 // Submit calls
	Accepted  int64 // steps applied and accepted
	Rejected  int64 // steps refused (cycle, cross-cycle, misroute, overload, dead txn)
	Completed int64 // transactions completed
	Aborted   int64 // transactions aborted, all causes
	Deleted   int64 // nodes reclaimed by deletion-policy sweeps
	Sweeps    int64 // amortized GC sweeps executed
	CrossTxns int64 // cross-partition transactions begun
	Shed      int64 // BEGINs refused by admission control (ErrOverload)
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

	// QueueDepth is the instantaneous per-shard submission backlog
	// (requests enqueued or blocked enqueuing, not yet picked up by the
	// shard goroutine), indexed by shard. Maintained as a cheap atomic on
	// the submit path; groundwork for admission control and load shedding.
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
// the admission priority the transaction began with; the retention governor
// consults it to exempt PriorityHigh transactions from straggler reaping.
type route struct {
	kind  routeKind
	shard int
	ct    *crossTxn
	pri   Priority
}

// Engine is the concurrent sharded scheduler. Submit may be called from
// any number of goroutines; Close must not race in-flight Submits.
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
	// generic ErrTxnAborted; reapedN is the Stats.Reaped counter. govMu
	// serializes governor passes (the ticker and explicit GovernNow calls);
	// govStop/govDone bound the governor goroutine's lifetime (nil when the
	// governor is disabled).
	reaped  reapedSet
	reapedN atomic.Int64
	govMu   sync.Mutex
	govStop chan struct{}
	govDone chan struct{}

	submitted, accepted, rejected       atomic.Int64
	completed, aborted, deleted, sweeps atomic.Int64
	crossTxns, prepares, crossAborts    atomic.Int64
	misroutes, shed                     atomic.Int64

	// resBufPool recycles SubmitBatch result buffers, keeping the steady
	// state submit path free of allocations. (Replies need no pool: the
	// shard mailbox's ring cell is the completion slot.)
	resBufPool sync.Pool
}

// New starts an engine with cfg's shard goroutines running. It is Open
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
// shard's scheduler is rebuilt from its checkpoint plus WAL tail, orphaned
// transactions are resolved (see recovery.go), and only then do the shard
// goroutines and the governor start. The report describes what was
// recovered (empty-but-non-nil without a Store).
func Open(cfg Config) (*Engine, *RecoveryReport, error) {
	cfg = cfg.withDefaults()
	if cfg.Store != nil && cfg.Store.NumShards() != cfg.Shards {
		return nil, nil, fmt.Errorf("engine: store has %d shards, config wants %d", cfg.Store.NumShards(), cfg.Shards)
	}
	e := &Engine{cfg: cfg, registry: newCrossRegistry(cfg.Shards)}
	e.routes.init()
	e.resBufPool.New = func() any { b := make([]Result, 0, 64); return &b }
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		e.shards[i] = &shard{
			idx:  i,
			eng:  e,
			mb:   ring.NewMailbox[request, reply](cfg.QueueDepth),
			done: make(chan struct{}),
			jr:   openJournal(cfg.Store, i, cfg.WALSyncEvery),
		}
	}
	rep, err := e.recover()
	if err != nil {
		return nil, nil, err
	}
	for _, sh := range e.shards {
		go sh.run()
	}
	if cfg.RetentionWatermark > 0 && cfg.Policy != nil {
		e.govStop = make(chan struct{})
		e.govDone = make(chan struct{})
		go e.governorLoop()
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

// Submit routes one step to its shard and returns the engine-level result.
// Steps of one transaction must be submitted sequentially (each after the
// previous one's Result), as a real client session would.
func (e *Engine) Submit(step model.Step) Result {
	return e.SubmitPriority(context.Background(), step, PriorityNormal)
}

// SubmitCtx is Submit under a context: a BEGIN with an already-cancelled
// context is refused before it begins, an access step with a cancelled
// context aborts its transaction (releasing every shard's state), and a
// cross-partition final write observing cancellation between PREPARE and
// the decision aborts instead of committing. The Result's Err then wraps
// both ErrTxnAborted and the context's cause.
func (e *Engine) SubmitCtx(ctx context.Context, step model.Step) Result {
	return e.SubmitPriority(ctx, step, PriorityNormal)
}

// SubmitPriority is SubmitCtx with an admission-control priority for BEGIN
// steps (access steps ignore the priority — an admitted transaction is
// never shed).
func (e *Engine) SubmitPriority(ctx context.Context, step model.Step, pri Priority) Result {
	if e.closed.Load() {
		return closedResult(step)
	}
	e.submitted.Add(1)
	if ctx.Err() != nil {
		e.rejected.Add(1)
		if step.Kind != model.KindBegin {
			// Cancellation kills the whole transaction, not just this step.
			e.Abort(step.Txn)
		}
		// Cause, not Err: a derived context cancelled for a deadline still
		// reports context.DeadlineExceeded.
		return Result{Step: step, Outcome: OutcomeRejected, Aborted: step.Txn, CompletedTxn: model.NoTxn, Err: ctxErr(step, context.Cause(ctx))}
	}
	switch step.Kind {
	case model.KindBegin:
		return e.submitBegin(ctx, step, pri)
	case model.KindRead, model.KindWriteFinal:
		return e.submitAccess(ctx, step)
	default:
		return Result{Step: step, Outcome: OutcomeError, Aborted: model.NoTxn, CompletedTxn: model.NoTxn,
			Err: fmt.Errorf("engine: step kind %v not part of the basic model: %w", step.Kind, ErrProtocol)}
	}
}

// shardOverloaded reports whether admission control should shed a BEGIN
// bound for shard p.
func (e *Engine) shardOverloaded(p int) bool {
	w := e.cfg.OverloadWatermark
	return w > 0 && e.shards[p].depth.Load() >= int64(w)
}

// shedBegin refuses a BEGIN under admission control: nothing began, no
// queue slot was consumed, and the ID remains free. home is the overloaded
// shard the event is attributed to; N carries its backlog at the decision.
func (e *Engine) shedBegin(step model.Step, home int) Result {
	e.shed.Add(1)
	e.rejected.Add(1)
	if e.cfg.Bus != nil {
		e.cfg.Bus.Emit(emit.Event{Kind: emit.KindShed, Class: emit.ClassOverload,
			Shard: int32(home), Txn: step.Txn, N: e.shards[home].depth.Load()})
	}
	return Result{Step: step, Outcome: OutcomeRejected, Aborted: step.Txn, CompletedTxn: model.NoTxn, Err: stepErr(step, ErrOverload)}
}

// registerBegin routes a BEGIN: a cross-partition footprint fans out as
// sub-transactions (direct result), a duplicate or shed ID answers
// directly, and a partition-local BEGIN registers its route and reports
// the home shard the step must be applied on. The duplicate check runs
// before the shed check so a protocol bug is never misreported as a
// retryable overload.
func (e *Engine) registerBegin(ctx context.Context, step model.Step, pri Priority) (home int, direct bool, res Result) {
	// A reused TxnID sheds the reaped mark of its dead predecessor: the new
	// incarnation must never inherit a straggler verdict.
	e.reaped.remove(step.Txn)
	h, cross := e.beginRoute(step)
	if cross {
		return 0, true, e.beginCross(ctx, step, pri)
	}
	if !e.routes.storeNew(step.Txn, route{kind: routeLocal, shard: h, pri: pri}) {
		return 0, true, Result{Step: step, Outcome: OutcomeError, Aborted: model.NoTxn, CompletedTxn: model.NoTxn,
			Err: fmt.Errorf("engine: duplicate BEGIN for T%d: %w", step.Txn, ErrProtocol)}
	}
	if pri != PriorityHigh && e.shardOverloaded(h) {
		e.routes.delete(step.Txn)
		return 0, true, e.shedBegin(step, h)
	}
	return h, false, Result{}
}

// SubmitBatch submits a client's steps in order and returns one Result per
// step. Consecutive steps bound for the same shard are pipelined through a
// single shard round-trip, so a whole partition-local transaction (BEGIN,
// reads, final write) costs one queue hop instead of one per step. The
// ordering contract is Submit's: steps of one transaction must appear in
// order, and a client must not submit a transaction's next step elsewhere
// before the batch returns. A step pipelined behind the end of its own
// transaction — behind its rejected step, or behind its final write — is
// answered exactly as the per-step path would answer it: rejected, wrapping
// ErrTxnAborted (ErrStragglerAborted after a reap). Only a step behind its
// own refused BEGIN reports ErrProtocol, as the BEGIN itself did; its route
// is dropped by the time the batch returns. Cross-partition steps interrupt
// the pipeline (each is a routed round-trip of its own, and a final write
// runs the two-phase commit) but never stall other clients' traffic.
func (e *Engine) SubmitBatch(steps []model.Step) []Result {
	return e.SubmitBatchInto(make([]Result, 0, len(steps)), steps)
}

// SubmitBatchInto is SubmitBatch appending into dst (pass a reused buffer
// with spare capacity to keep the submit path allocation-free). The batch
// path submits at PriorityNormal with no deadline; session clients needing
// per-transaction contexts or priorities use the per-step path.
func (e *Engine) SubmitBatchInto(dst []Result, steps []model.Step) []Result {
	if len(steps) == 0 {
		return dst
	}
	if e.closed.Load() {
		for _, st := range steps {
			dst = append(dst, closedResult(st))
		}
		return dst
	}
	// run is the current span of consecutive steps bound for one shard.
	runStart, runShard := -1, -1
	flush := func(end int) {
		if runStart >= 0 {
			dst = e.flushRun(dst, runShard, steps[runStart:end])
			runStart = -1
		}
	}
	extend := func(i, shard int) {
		if runStart >= 0 && shard != runShard {
			flush(i)
		}
		if runStart < 0 {
			runStart, runShard = i, shard
		}
	}
	for i, st := range steps {
		e.submitted.Add(1)
		switch st.Kind {
		case model.KindBegin:
			if _, live := e.routes.load(st.Txn); live {
				// The pending run may complete/abort this very ID; apply
				// it first so duplicate detection sees the final state.
				flush(i)
			}
			home, direct, res := e.registerBegin(context.Background(), st, PriorityNormal)
			if direct {
				flush(i)
				dst = append(dst, res)
				continue
			}
			extend(i, home)
		case model.KindRead, model.KindWriteFinal:
			r, ok := e.routes.load(st.Txn)
			if !ok {
				flush(i)
				e.rejected.Add(1)
				dst = append(dst, Result{Step: st, Outcome: OutcomeRejected, Aborted: st.Txn, CompletedTxn: model.NoTxn, Err: e.deadTxnErr(st)})
				continue
			}
			if r.kind == routeCross {
				// Routed individually; a final write runs the 2PC, so the
				// pending run must land first to preserve step order.
				flush(i)
				dst = append(dst, e.crossStep(context.Background(), st, r))
				continue
			}
			if foreign := e.misroutedStep(st, r.shard); foreign {
				flush(i)
				dst = append(dst, e.misroute(st, r))
				continue
			}
			extend(i, r.shard)
		default:
			flush(i)
			dst = append(dst, Result{Step: st, Outcome: OutcomeError, Aborted: model.NoTxn, CompletedTxn: model.NoTxn,
				Err: fmt.Errorf("engine: step kind %v not part of the basic model: %w", st.Kind, ErrProtocol)})
		}
	}
	flush(len(steps))
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

// flushRun applies one same-shard span through a single reqBatch
// round-trip, appending its results to dst.
func (e *Engine) flushRun(dst []Result, shardIdx int, steps []model.Step) []Result {
	bufp := e.resBufPool.Get().(*[]Result)
	rep, ok := e.shards[shardIdx].do(request{kind: reqBatch, steps: steps, done: (*bufp)[:0]})
	if !ok {
		// Lost request (Close raced us). The buffer may still be written
		// by the shutdown drain — abandon it rather than recycle.
		for _, st := range steps {
			if st.Kind == model.KindBegin {
				e.routes.delete(st.Txn)
			}
			dst = append(dst, closedResult(st))
		}
		return dst
	}
	dst = append(dst, rep.results...)
	// Mirror submitBegin: a BEGIN the scheduler refused must drop the
	// route we registered, or the ID stays poisoned forever.
	for i, st := range steps {
		if st.Kind == model.KindBegin && i < len(rep.results) && rep.results[i].Outcome == OutcomeError {
			e.routes.delete(st.Txn)
		}
	}
	*bufp = rep.results[:0]
	e.resBufPool.Put(bufp)
	return dst
}

func (e *Engine) submitBegin(ctx context.Context, step model.Step, pri Priority) Result {
	home, direct, res := e.registerBegin(ctx, step, pri)
	if direct {
		return res
	}
	res = e.doStep(home, step)
	if res.Outcome == OutcomeError {
		// The scheduler refused to start the transaction (e.g. its ID
		// collides with a retained completed transaction): drop the route
		// we just created, or the ID stays poisoned forever.
		e.routes.delete(step.Txn)
	}
	return res
}

// doStep runs one step on a shard, mapping a lost request (Close raced the
// caller) to ErrClosed.
func (e *Engine) doStep(shard int, step model.Step) Result {
	rep, ok := e.shards[shard].do(request{kind: reqStep, step: step})
	if !ok {
		return closedResult(step)
	}
	return rep.res
}

// deadTxnErr is the error for a step addressed to a transaction with no
// live route: stragglerErr when the retention governor reaped it (so the
// session learns why), plain ErrTxnAborted otherwise.
func (e *Engine) deadTxnErr(step model.Step) error {
	if e.reaped.contains(step.Txn) {
		return stragglerErr(step)
	}
	return stepErr(step, ErrTxnAborted)
}

func (e *Engine) submitAccess(ctx context.Context, step model.Step) Result {
	r, ok := e.routes.load(step.Txn)
	if !ok {
		e.rejected.Add(1)
		return Result{Step: step, Outcome: OutcomeRejected, Aborted: step.Txn, CompletedTxn: model.NoTxn, Err: e.deadTxnErr(step)}
	}
	if r.kind == routeCross {
		return e.crossStep(ctx, step, r)
	}
	if e.misroutedStep(step, r.shard) {
		return e.misroute(step, r)
	}
	return e.doStep(r.shard, step)
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
	e.shards[r.shard].do(request{kind: reqAbortOne, step: model.Step{Txn: step.Txn}})
	e.routes.delete(step.Txn)
	return Result{Step: step, Outcome: OutcomeRejected, Aborted: step.Txn, CompletedTxn: model.NoTxn, Err: stepErr(step, ErrMisroute)}
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
	e.shards[r.shard].do(request{kind: reqAbortOne, step: model.Step{Txn: id}})
	e.routes.delete(id)
	if e.cfg.Log != nil {
		e.cfg.Log.MarkAborted(id)
	}
	return true
}

// Stats returns a snapshot of the aggregate counters. It is safe to call
// concurrently with Submits and after Close.
func (e *Engine) Stats() Stats {
	s := Stats{
		Submitted:   e.submitted.Load(),
		Accepted:    e.accepted.Load(),
		Rejected:    e.rejected.Load(),
		Completed:   e.completed.Load(),
		Aborted:     e.aborted.Load(),
		Deleted:     e.deleted.Load(),
		Sweeps:      e.sweeps.Load(),
		CrossTxns:   e.crossTxns.Load(),
		Shed:        e.shed.Load(),
		Reaped:      e.reapedN.Load(),
		Prepares:    e.prepares.Load(),
		CrossAborts: e.crossAborts.Load(),
		Misroutes:   e.misroutes.Load(),
	}
	for _, sh := range e.shards {
		var cs core.Stats
		if rep, ok := sh.do(request{kind: reqStats}); ok {
			cs = rep.stats
		} else {
			// The shard shut down (do only fails once done is closed, and
			// final is written before that), so its last snapshot is valid.
			//lint:ignore shardowned-access read after <-sh.done: final is written before close(done), which do's failure proves happened
			cs = sh.final
		}
		s.PerShard = append(s.PerShard, cs)
		s.Merged.Merge(cs)
		// A shard that shut down serves nothing: its backlog is dead, its
		// depth gauge may hold a phantom +1 from a submit that raced the
		// shutdown drain, and a prepare whose decision was cut off by Close
		// would pin the prepared gauge forever — so report zero rather than
		// the stale counters.
		select {
		case <-sh.done:
			s.QueueDepth = append(s.QueueDepth, 0)
			s.PreparedByShard = append(s.PreparedByShard, 0)
		default:
			s.QueueDepth = append(s.QueueDepth, sh.depth.Load())
			s.PreparedByShard = append(s.PreparedByShard, sh.preparedN.Load())
		}
	}
	return s
}

// QueueDepths returns the instantaneous per-shard submission backlog
// without a shard round-trip — the same gauge admission control sheds on
// (Stats.QueueDepth fetches it alongside the heavier scheduler counters).
// Dead shards report zero.
func (e *Engine) QueueDepths() []int64 {
	out := make([]int64, len(e.shards))
	for i, sh := range e.shards {
		select {
		case <-sh.done:
		default:
			out[i] = sh.depth.Load()
		}
	}
	return out
}

// RetainedCounts returns the per-shard count of retained completed
// transactions (the storage the deletion policy reclaims), lock-free like
// QueueDepths. The gauge is refreshed by the shard goroutine after every
// batch, so it trails the scheduler by at most one batch. Dead shards
// report zero: a closed engine retains nothing a client can reach.
func (e *Engine) RetainedCounts() []int64 {
	out := make([]int64, len(e.shards))
	for i, sh := range e.shards {
		select {
		case <-sh.done:
		default:
			out[i] = sh.retainedN.Load()
		}
	}
	return out
}

// PreparedCounts returns the per-shard count of prepared-but-undecided 2PC
// sub-transactions (each pins its node against deletion), lock-free like
// QueueDepths. Dead shards report zero.
func (e *Engine) PreparedCounts() []int64 {
	out := make([]int64, len(e.shards))
	for i, sh := range e.shards {
		select {
		case <-sh.done:
		default:
			out[i] = sh.preparedN.Load()
		}
	}
	return out
}

// Gauges snapshots the per-shard gauges in the shape the metrics endpoint
// polls at scrape time (emit.GaugeSource).
func (e *Engine) Gauges() emit.GaugeSnapshot {
	gs := emit.GaugeSnapshot{
		QueueDepth:         e.QueueDepths(),
		Retained:           e.RetainedCounts(),
		Prepared:           e.PreparedCounts(),
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

// Close stops the shard goroutines. Submits still in flight when Close is
// called receive ErrClosed; callers should stop submitting first.
func (e *Engine) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	if e.govStop != nil {
		// Stop the governor before the shards: a reap mid-shutdown would
		// race the shard drain for no benefit.
		close(e.govStop)
		<-e.govDone
	}
	for _, sh := range e.shards {
		sh.trySend(request{kind: reqStop})
	}
	for _, sh := range e.shards {
		<-sh.done
	}
}
