package client

import (
	"repro/internal/emit"
	"repro/internal/engine"
)

// The error taxonomy. Every failed operation returns an error wrapping
// exactly one of these sentinels (plus step context), threaded up from the
// engine — the same values, so errors.Is holds across layers. Branch with
// errors.Is, never string matching.
var (
	// ErrCycle: the operation was refused because accepting it would close
	// a cycle in its shard's conflict graph; the transaction aborted.
	ErrCycle = engine.ErrCycle
	// ErrCrossCycle: the cross-arc registry vetoed the operation — it
	// would close a cycle spanning two or more shard graphs; the
	// cross-partition transaction aborted.
	ErrCrossCycle = engine.ErrCrossCycle
	// ErrMisroute: the transaction touched an entity outside its declared
	// footprint's partition (or participant set); it aborted.
	ErrMisroute = engine.ErrMisroute
	// ErrTxnAborted: the session's transaction is not live — it aborted
	// earlier (any cause, context expiry included) or never began.
	ErrTxnAborted = engine.ErrTxnAborted
	// ErrProtocol: the call violated the session protocol (duplicate
	// WithID, operation after commit, unknown policy name, bad option).
	// State is unchanged.
	ErrProtocol = engine.ErrProtocol
	// ErrStragglerAborted: the retention governor reaped the session's
	// transaction — it was the oldest live straggler while retained
	// completed storage sat over Config.RetentionWatermark. Errors carrying
	// it also match ErrTxnAborted; test for this sentinel first to
	// distinguish a reap (retry, shorten the transaction, or escalate with
	// WithPriority(PriorityHigh)) from an ordinary abort.
	ErrStragglerAborted = engine.ErrStragglerAborted
	// ErrClosed: the DB has been closed.
	ErrClosed = engine.ErrClosed
)

// ErrorCode maps an error from this package onto its stable wire code, the
// machine-readable field carried by txgc-serve's protocol v2 responses:
// "" for nil, "straggler-aborted" for a reap, and otherwise the name of the
// outcome class the event bus carries for it (engine.ClassOf), "internal"
// for an error outside the taxonomy.
func ErrorCode(err error) string {
	switch c := engine.ClassOf(err); c {
	case emit.ClassOK:
		return ""
	case emit.ClassStraggler:
		return "straggler-aborted"
	default:
		return c.String()
	}
}
