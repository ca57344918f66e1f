package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/emit"
	"repro/internal/engine"
	"repro/internal/model"
)

// BeginOption configures one Begin.
type BeginOption func(*beginOpts)

type beginOpts struct {
	id        TxnID
	hasID     bool
	footprint []Entity
	shards    []int
	pri       Priority
}

// WithID pins the transaction's ID instead of auto-allocating one. IDs
// must be unique over the DB's lifetime; reusing a live or retained ID
// fails the Begin with ErrProtocol. Callers mixing WithID with
// auto-allocated sessions own the disjointness of the two ID spaces.
func WithID(id TxnID) BeginOption {
	return func(o *beginOpts) { o.id = id; o.hasID = true }
}

// WithFootprint declares entities the transaction will touch (appending to
// any prior option). The engine routes the session to the shard owning the
// footprint — or, when it spans partitions, runs it cross-shard with the
// final Write committing through the two-phase path. Touching an entity
// outside the declared footprint's partitions aborts the transaction with
// ErrMisroute. An empty footprint falls back to hash-routing by ID.
func WithFootprint(xs ...Entity) BeginOption {
	return func(o *beginOpts) { o.footprint = append(o.footprint, xs...) }
}

// WithShards declares participant shards directly instead of deriving them
// from entities — for sessions that will roam a whole partition (or
// several) without a known entity set up front, like an audit scan. The
// session may then touch any entity owned by a listed shard.
func WithShards(shards ...int) BeginOption {
	return func(o *beginOpts) { o.shards = append(o.shards, shards...) }
}

// WithPriority sets the session's admission-control priority;
// PriorityHigh bypasses Config.OverloadWatermark shedding.
func WithPriority(p Priority) BeginOption {
	return func(o *beginOpts) { o.pri = p }
}

type txnState uint8

const (
	txnLive txnState = iota
	txnCommitted
	txnAborted
)

// Txn is one transaction session. A session is single-client state: drive
// it from one goroutine at a time (the DB itself is fully concurrent).
// The zero value is not usable; sessions come from DB.Begin.
type Txn struct {
	db *DB
	id TxnID
	// beginCtx is the context the transaction was begun under; every
	// operation runs under the merge of it and the operation's own
	// context, so a Begin deadline aborts the transaction even while an
	// operation — a two-phase commit included — is in flight.
	beginCtx context.Context
	// began is the session's wall-clock start, carried as the latency of
	// its terminal commit/abort event (zero without a bus — sessions never
	// call the clock unless telemetry wants it).
	began time.Time

	mu    sync.Mutex
	state txnState
	err   error // terminal abort cause; nil while live or committed
	// stopExpiry unregisters expire from beginCtx on commit or abort; nil
	// when beginCtx cannot die.
	stopExpiry func() bool
}

// Begin opens a transaction session. The context governs the whole
// transaction: if it is cancelled or its deadline expires while the
// transaction is live, the transaction aborts — even between PREPARE and
// the commit decision of a cross-shard Write, releasing prepared pins and
// registry entries. A Begin against an overloaded shard is shed with
// ErrOverload unless the session has PriorityHigh.
func (db *DB) Begin(ctx context.Context, opts ...BeginOption) (*Txn, error) {
	var bo beginOpts
	for _, o := range opts {
		o(&bo)
	}
	id := bo.id
	if !bo.hasID {
		id = TxnID(db.nextID.Add(1))
	}
	fp := bo.footprint
	for _, s := range bo.shards {
		if s < 0 || s >= db.eng.NumShards() {
			return nil, fmt.Errorf("client: WithShards(%d): shard out of range [0,%d): %w", s, db.eng.NumShards(), ErrProtocol)
		}
		// Entity s is owned by shard s (s mod Shards), so one representative
		// entity per listed shard declares exactly that participant set.
		fp = append(fp, Entity(s))
	}
	res := db.eng.SubmitPriority(ctx, model.BeginDeclared(id, fp...), bo.pri)
	if res.Err != nil {
		return nil, res.Err
	}
	t := &Txn{db: db, id: id, beginCtx: ctx}
	if db.bus != nil {
		t.began = time.Now()
		db.bus.Emit(emit.Event{Kind: emit.KindBegin, Class: emit.ClassOK,
			Shard: emit.NoShard, Txn: id})
	}
	if ctx.Done() != nil {
		// Under mu: expire may already be running against a dead ctx, and
		// its finishLocked reads stopExpiry.
		t.mu.Lock()
		t.stopExpiry = context.AfterFunc(ctx, t.expire)
		t.mu.Unlock()
	}
	return t, nil
}

// opCtx merges the Begin context into an operation's context, so whichever
// dies first aborts the engine-side work. The common cases (only one of
// the two is cancellable) cost nothing; the merged case registers an
// AfterFunc, no goroutine. The engine reports the merged context's cause,
// so a Begin deadline still surfaces as context.DeadlineExceeded.
func (t *Txn) opCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if t.beginCtx.Done() == nil {
		return ctx, nil
	}
	// A Begin context that is already dead (or an op context that cannot
	// die) needs no merge — and the AfterFunc below fires asynchronously,
	// so the already-dead case must be caught synchronously here.
	if ctx.Done() == nil || t.beginCtx.Err() != nil {
		return t.beginCtx, nil
	}
	merged, cancel := context.WithCancelCause(ctx)
	stop := context.AfterFunc(t.beginCtx, func() { cancel(context.Cause(t.beginCtx)) })
	return merged, func() { stop(); cancel(nil) }
}

// expire aborts the transaction the moment its Begin context dies, so a
// deadline fires even while the client is idle between operations.
func (t *Txn) expire() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state == txnLive {
		t.expireLocked()
	}
}

// expireLocked is the one place that speaks for a dead Begin context,
// whoever notices first: the AfterFunc while the session idles, or an
// operation the engine refused for it. Aborting again what the engine has
// already aborted is a no-op. Caller holds t.mu and has checked
// t.state == txnLive.
func (t *Txn) expireLocked() {
	t.db.eng.Abort(t.id)
	t.finishLocked(txnAborted, fmt.Errorf("client: T%d: %w (%w)", t.id, ErrTxnAborted, context.Cause(t.beginCtx)))
}

// finishLocked records the terminal state exactly once and emits the
// session's terminal event (Shard == -1, DurNanos = wall-clock lifetime,
// Class = the abort cause's outcome class). Caller holds t.mu and has
// checked t.state == txnLive.
func (t *Txn) finishLocked(s txnState, err error) {
	t.state = s
	t.err = err
	if t.stopExpiry != nil {
		t.stopExpiry()
	}
	if bus := t.db.bus; bus != nil {
		kind := emit.KindCommit
		if s != txnCommitted {
			kind = emit.KindAbort
		}
		bus.Emit(emit.Event{Kind: kind, Class: engine.ClassOf(err),
			Shard: emit.NoShard, Txn: t.id, DurNanos: int64(time.Since(t.began))})
	}
}

// terminalErrLocked is the error for an operation on a finished session.
func (t *Txn) terminalErrLocked() error {
	if t.state == txnCommitted {
		return fmt.Errorf("client: T%d already committed: %w", t.id, ErrProtocol)
	}
	return t.err
}

// noteLocked folds one engine result into the session state and returns
// the operation's error.
func (t *Txn) noteLocked(res Result) error {
	if res.Err == nil {
		if res.CompletedTxn == t.id {
			t.finishLocked(txnCommitted, nil)
		}
		return nil
	}
	if res.Aborted == t.id || errors.Is(res.Err, ErrClosed) {
		// Remember the cause, but make later operations on the dead session
		// match ErrTxnAborted too (the killing step itself reports the
		// specific cause it returned here).
		stored := res.Err
		if !errors.Is(stored, ErrTxnAborted) {
			stored = fmt.Errorf("client: T%d: %w (%w)", t.id, ErrTxnAborted, res.Err)
		}
		t.finishLocked(txnAborted, stored)
	}
	// Otherwise (ErrProtocol) the transaction is still live: engine state
	// is unchanged and the session may continue.
	return res.Err
}

// submitLocked runs one access step of a session under the merge of ctx
// and the Begin context. Caller holds t.mu.
func (t *Txn) submitLocked(ctx context.Context, step model.Step) error {
	if t.state != txnLive {
		return t.terminalErrLocked()
	}
	opctx, stop := t.opCtx(ctx)
	if stop != nil {
		defer stop()
	}
	res := t.db.eng.SubmitCtx(opctx, step)
	if res.Err != nil {
		if cause := context.Cause(t.beginCtx); cause != nil && errors.Is(res.Err, cause) {
			// The engine killed the transaction for the Begin context's
			// death, found on arrival or, through the merged context,
			// mid-commit.
			t.expireLocked()
			return t.err
		}
	}
	return t.noteLocked(res)
}

// ID returns the session's transaction ID.
func (t *Txn) ID() TxnID { return t.id }

// Err returns the session's terminal abort cause: nil while the
// transaction is live or after a successful commit, and the wrapped
// taxonomy error once it aborted (context expiry included).
func (t *Txn) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Read reads one entity. A non-nil error wrapping anything but
// ErrProtocol means the transaction is dead.
func (t *Txn) Read(ctx context.Context, x Entity) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.submitLocked(ctx, model.Read(t.id, x))
}

// Write installs the transaction's whole write set atomically and commits
// it — the paper's final write; an empty write set is a read-only commit.
// For a cross-partition session the commit runs the two-phase protocol:
// PREPARE votes on every participant, then COMMIT or ABORT. A nil return
// means committed; a non-nil error means the transaction aborted (ErrCycle,
// ErrCrossCycle, ErrMisroute, ErrTxnAborted) unless it wraps ErrProtocol.
func (t *Txn) Write(ctx context.Context, xs ...Entity) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.submitLocked(ctx, model.WriteFinal(t.id, xs...))
}

// Abort aborts the session, releasing its state — sub-transactions and
// prepared pins included — on every shard. Aborting an already-aborted
// session is a no-op; aborting a committed one returns ErrProtocol.
func (t *Txn) Abort() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch t.state {
	case txnCommitted:
		return fmt.Errorf("client: abort of committed T%d: %w", t.id, ErrProtocol)
	case txnAborted:
		return nil
	}
	t.db.eng.Abort(t.id)
	t.finishLocked(txnAborted, fmt.Errorf("client: T%d: %w", t.id, ErrTxnAborted))
	return nil
}
