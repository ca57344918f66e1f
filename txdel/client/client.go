// Package client is the public session API over the sharded deletion
// engine: context-aware transactions and a typed error taxonomy.
//
// Where package txdel exposes the paper's single-node schedulers and
// deletion conditions directly, client is how a program talks to the
// concurrent engine — N single-writer shards over hash-partitioned
// entities, per-shard deletion policies with amortized GC, and cross-shard
// transactions committing through a two-phase protocol guarded by the
// cross-arc registry. Nothing outside this package needs to import the
// engine.
//
// # Sessions
//
//	db, err := client.Open(client.Config{Shards: 4, Policy: "greedy-c1"})
//	...
//	txn, err := db.Begin(ctx, client.WithFootprint(x, y))
//	if err != nil { ... }            // e.g. errors.Is(err, client.ErrProtocol)
//	if err := txn.Read(ctx, x); err != nil { ... }
//	if err := txn.Write(ctx, y); err != nil { ... }  // nil == committed
//
// A transaction declares its entity footprint at Begin; the engine routes
// it to the owning shard, or — when the footprint spans partitions — runs
// it as one sub-transaction per participating shard, the final Write
// committing through the two-phase path. Context cancellation or deadline
// expiry at any point (including between PREPARE and the commit decision)
// aborts the transaction, releasing prepared pins and cross-arc registry
// entries on every shard.
//
// # Errors
//
// Every failure is classified by an errors.Is-able taxonomy — see
// ErrCycle and friends in this package. The step that kills a transaction
// carries the specific cause (ErrCycle, ErrCrossCycle, ErrMisroute); later
// operations on the dead session return ErrTxnAborted.
package client

import (
	"fmt"
	"io"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/emit"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/store"
	"repro/internal/trace"
)

// Core vocabulary, aliased so callers never import internal packages.
type (
	// Entity identifies a database item; entity x lives on shard
	// x mod Shards.
	Entity = model.Entity
	// TxnID identifies a transaction.
	TxnID = model.TxnID
	// Step is one raw scheduler input (the batch path's unit).
	Step = model.Step
	// Result reports the engine-level effect of one raw submission: the
	// verdict, not the step, which the caller holds (SubmitBatch's
	// results[i] answers steps[i]). Result.Err is the source of truth; it
	// wraps the taxonomy, and its text names the step.
	Result = engine.Result
	// Stats is a point-in-time aggregate of engine counters.
	Stats = engine.Stats
	// Priority is a session's standing with the retention governor.
	Priority = engine.Priority
	// Store is a pluggable durability backend (see Config.Store).
	Store = store.Store
	// RecoveryReport summarizes what Open recovered from a durable store.
	RecoveryReport = engine.RecoveryReport
)

// Re-exported constants.
const (
	// NoTxn is the sentinel for "no transaction".
	NoTxn = model.NoTxn
	// PriorityNormal sessions may be reaped by the retention governor.
	PriorityNormal = engine.PriorityNormal
	// PriorityHigh sessions are exempt from the retention governor.
	PriorityHigh = engine.PriorityHigh
)

// Config configures a DB.
type Config struct {
	// Shards is the number of entity partitions, each with its own
	// scheduler (default 1).
	Shards int
	// Policy names the per-shard deletion policy: "nogc" (default, never
	// delete), "lemma1", "greedy-c1", "greedy-c1-newest",
	// "noncurrent-safe", or "max-safe".
	Policy string
	// RetentionWatermark, if > 0, enables the retention governor: when the
	// engine-wide retained completed count crosses it, the oldest live
	// straggler session is aborted (its next operation returns an error
	// matching both ErrStragglerAborted and ErrTxnAborted) so retention
	// falls back under the watermark. PriorityHigh sessions are exempt.
	// Requires a deletion policy other than "nogc".
	RetentionWatermark int
	// DataDir, when non-empty, enables crash durability on the file
	// backend: each shard journals its accepted subschedule to a
	// write-ahead log under this directory and checkpoints at a sweep once
	// the log has outgrown the last snapshot, and Open recovers whatever a
	// previous process left there
	// before serving (see DB.Recovery). The directory is created if
	// missing; its shard count must match Shards on reopen.
	DataDir string
	// FsyncBatch is the WAL sync cadence: the log is forced once this many
	// records accumulated (default 64). 1 is strict mode — every record
	// durable before its acknowledgement. 2PC PREPARE votes and COMMIT
	// decisions are always synced immediately regardless. Ignored without
	// DataDir or Store.
	FsyncBatch int
	// Store plugs a durability backend directly (e.g. store.NewMem in
	// tests); mutually exclusive with DataDir. The caller keeps ownership:
	// Close does not close it.
	Store Store

	// Verify keeps a full step trace; Close then replays the accepted
	// subschedule through the offline CSR referee and reports a non-nil
	// error if conflict serializability was ever violated.
	Verify bool
	// Trace keeps the step trace without the Close-time CSR check, so it
	// can be dumped for offline replay (DumpTrace). Implied by Verify.
	Trace bool

	// Sinks, when non-empty, attaches a telemetry bus: every engine
	// lifecycle event (begin/accept/veto/prepare/commit/abort/sweep/reap,
	// stamped with its shard) plus client-session events (Shard == -1,
	// commit/abort carrying wall-clock latency) is delivered to each sink
	// on one drain goroutine. A *emit.MetricsSink in the list is wired to
	// the engine's gauges and the bus's drop counters automatically. The
	// DB owns the bus: Close drains and closes the sinks. The bus ring holds
	// emit.DefaultBuffer events; when sinks fall behind, events beyond it
	// are dropped and counted — the hot path never blocks.
	Sinks []emit.Sink
}

func policyFactory(name string) (func() core.Policy, error) {
	if name == "" || name == "none" {
		name = "nogc"
	}
	factory, ok := core.PolicyByName(name)
	if !ok {
		return nil, fmt.Errorf("client: unknown policy %q (nogc, lemma1, greedy-c1, greedy-c1-newest, noncurrent-safe, max-safe): %w", name, ErrProtocol)
	}
	return factory, nil
}

// DB is an open handle on the sharded engine. All methods are safe for
// concurrent use; each Txn, however, is a single client session and must
// be driven from one goroutine at a time.
type DB struct {
	eng    *engine.Engine
	log    *trace.SafeLog
	bus    *emit.Bus
	verify bool
	nextID atomic.Int64
	closed atomic.Bool
	// ownedStore is the file backend Open created from Config.DataDir (nil
	// when the caller supplied Config.Store or durability is off); Close
	// closes it after the engine's final sync.
	ownedStore *store.File
	recovery   *RecoveryReport
}

// Open starts the engine with cfg's shards ready to run.
func Open(cfg Config) (*DB, error) {
	factory, err := policyFactory(cfg.Policy)
	if err != nil {
		return nil, err
	}
	var log *trace.SafeLog
	if cfg.Verify || cfg.Trace {
		log = trace.NewSafeLog()
	}
	var bus *emit.Bus
	if len(cfg.Sinks) > 0 {
		bus = emit.NewBus(emit.DefaultBuffer, cfg.Sinks...)
	}
	st := cfg.Store
	var owned *store.File
	if cfg.DataDir != "" {
		if st != nil {
			return nil, fmt.Errorf("client: Config.DataDir and Config.Store are mutually exclusive: %w", ErrProtocol)
		}
		shards := cfg.Shards
		if shards <= 0 {
			shards = 1
		}
		f, err := store.OpenFile(cfg.DataDir, shards, store.Options{})
		if err != nil {
			return nil, fmt.Errorf("client: open data dir: %w", err)
		}
		st, owned = f, f
	}
	eng, rep, err := engine.Open(engine.Config{
		Shards:             cfg.Shards,
		Policy:             factory,
		RetentionWatermark: cfg.RetentionWatermark,
		Log:                log,
		Bus:                bus,
		Store:              st,
		WALSyncEvery:       cfg.FsyncBatch,
	})
	if err != nil {
		if owned != nil {
			owned.Close()
		}
		if bus != nil {
			bus.Close()
		}
		return nil, err
	}
	for _, s := range cfg.Sinks {
		if m, ok := s.(*emit.MetricsSink); ok {
			m.SetGauges(eng.Gauges)
			m.SetBus(bus)
		}
	}
	db := &DB{eng: eng, log: log, bus: bus, verify: cfg.Verify, ownedStore: owned, recovery: rep}
	// Sessions count on from the IDs the recovered state names: reusing one
	// would collide with a retained transaction.
	db.nextID.Store(int64(rep.MaxTxnID))
	return db, nil
}

// Recovery reports what Open recovered from the durability layer (an empty
// report when durability is off).
func (db *DB) Recovery() *RecoveryReport { return db.recovery }

// Stats returns a snapshot of the engine counters. Safe to call
// concurrently with sessions and after Close.
func (db *DB) Stats() Stats { return db.eng.Stats() }

// QueueDepths returns, per shard, the instantaneous number of submitters
// waiting for the shard's lock, without taking a shard's lock.
func (db *DB) QueueDepths() []int64 { return db.eng.QueueDepths() }

// SubmitBatch is the raw step path under the session API: it submits a
// client's steps and returns one Result per step, in submission order:
// results[i] answers steps[i], and the pairing is by position alone.
// Each shard sees the batch's steps bound for it in submission order: the
// partition-local steps between two cross-partition steps cost one visit
// per shard they touch, not one per step. Sessions and batches may be mixed on one DB,
// but one transaction's steps must all come from one or the other. Batch
// steps run at PriorityNormal with no deadline.
func (db *DB) SubmitBatch(steps []Step) []Result {
	return db.eng.SubmitBatchInto(make([]Result, 0, len(steps)), steps)
}

// Abort aborts a live transaction by ID, whatever state it is in —
// releasing, for a cross-partition transaction, the sub-transactions and
// prepared pins on every participant. It reports false if the transaction
// is unknown or already decided. Sessions normally use Txn.Abort; this is
// the raw-path equivalent (e.g. a wire server cleaning up after a
// disconnected client).
func (db *DB) Abort(id TxnID) bool { return db.eng.Abort(id) }

// Bus returns the telemetry bus attached via Config.Sinks (nil without
// sinks) — for reading the emitted/dropped counters.
func (db *DB) Bus() *emit.Bus { return db.bus }

// DumpTrace writes the step trace as JSON lines ({"rec":"step",...}, one
// per recorded event, in apply order) — the schedule half of a capture
// file; see docs/observability.md for the format. It requires Config.Trace
// or Config.Verify and may be called while sessions run (it snapshots) or
// after Close.
func (db *DB) DumpTrace(w io.Writer) error {
	if db.log == nil {
		return fmt.Errorf("client: DumpTrace without Config.Trace or Config.Verify: %w", ErrProtocol)
	}
	var buf []byte
	for _, ev := range db.log.Snapshot().Events() {
		buf = buf[:0]
		buf = append(buf, `{"rec":"step","seq":`...)
		buf = strconv.AppendInt(buf, ev.Seq, 10)
		buf = append(buf, `,"txn":`...)
		buf = strconv.AppendInt(buf, int64(ev.Step.Txn), 10)
		if ev.AbortMark {
			buf = append(buf, `,"kind":"abort-mark"}`...)
			buf = append(buf, '\n')
		} else {
			buf = append(buf, `,"kind":"`...)
			switch ev.Step.Kind {
			case model.KindBegin:
				buf = append(buf, `begin"`...)
			case model.KindRead:
				buf = append(buf, `read","entity":`...)
				buf = strconv.AppendInt(buf, int64(ev.Step.Entity), 10)
			default:
				buf = append(buf, `write","entities":[`...)
				for i, x := range ev.Step.Entities {
					if i > 0 {
						buf = append(buf, ',')
					}
					buf = strconv.AppendInt(buf, int64(x), 10)
				}
				buf = append(buf, ']')
			}
			if ev.Step.Kind == model.KindBegin && len(ev.Step.Entities) > 0 {
				buf = append(buf, `,"footprint":[`...)
				for i, x := range ev.Step.Entities {
					if i > 0 {
						buf = append(buf, ',')
					}
					buf = strconv.AppendInt(buf, int64(x), 10)
				}
				buf = append(buf, ']')
			}
			buf = append(buf, `,"accepted":`...)
			buf = strconv.AppendBool(buf, ev.Accepted)
			buf = append(buf, "}\n"...)
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// Close stops the engine, then drains and closes the telemetry bus (so the
// tail of the event stream reaches every sink). With Config.Verify it then
// replays the accepted subschedule through the offline CSR referee and
// returns its verdict (nil means the full run was conflict serializable).
// Close is idempotent; later calls return nil.
func (db *DB) Close() error {
	if !db.closed.CompareAndSwap(false, true) {
		return nil
	}
	db.eng.Close()
	var busErr error
	if db.ownedStore != nil {
		// After the engine's final sync; a graceful Close leaves a clean,
		// fully-durable directory behind.
		busErr = db.ownedStore.Close()
	}
	if db.bus != nil {
		if err := db.bus.Close(); err != nil && busErr == nil {
			busErr = err
		}
	}
	if db.verify {
		if err := db.log.CheckAcceptedCSR(); err != nil {
			return err
		}
	}
	return busErr
}
