// The engine's typed error taxonomy. Result.Err is the single source of
// truth about why a submission failed: every non-accepted Result carries an
// error wrapping exactly one of the sentinels below (plus the failing
// step's context), so clients branch with errors.Is instead of decoding an
// outcome enum. Result.Outcome is a coarse classification computed from Err
// for display, and nothing stores it: nil is accepted, ErrProtocol or
// ErrClosed is an error (state unchanged), and every other sentinel is a
// rejection.
package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/emit"
	"repro/internal/model"
)

var (
	// ErrClosed: the engine has been closed; no state was changed.
	ErrClosed = errors.New("engine: closed")
	// ErrCycle: the step was refused because accepting it would close a
	// cycle in its shard's conflict graph (the paper's Rule 2/3 rejection);
	// the acting transaction aborted.
	ErrCycle = errors.New("engine: step would close a conflict cycle")
	// ErrCrossCycle: the cross-arc registry vetoed the step — accepting it
	// would close a cycle spanning two or more shard graphs; the acting
	// cross-partition transaction aborted.
	ErrCrossCycle = errors.New("engine: step would close a cycle across shard graphs")
	// ErrMisroute: the transaction touched an entity outside its declared
	// partition (local) or participant set (cross); it aborted.
	ErrMisroute = errors.New("engine: entity outside the transaction's partition")
	// ErrTxnAborted: the step addressed a transaction that is not live —
	// it never began, already finished, or aborted (including an abort
	// forced by context cancellation or deadline expiry).
	ErrTxnAborted = errors.New("engine: transaction aborted or unknown")
	// ErrProtocol: the submission violated the session protocol (duplicate
	// BEGIN, step after the final write, a step kind outside the basic
	// model). Engine state is unchanged and the transaction, if live,
	// stays live.
	ErrProtocol = errors.New("engine: protocol violation")
	// ErrStragglerAborted: the retention governor reaped the transaction —
	// it was the oldest live straggler while retained completed storage sat
	// over Config.RetentionWatermark. Errors carrying it also match
	// ErrTxnAborted (the transaction is dead either way); test for this
	// sentinel first to distinguish a reap from a client-side abort.
	ErrStragglerAborted = errors.New("engine: aborted by the retention governor (straggler reap)")
)

// ClassOf maps a Result.Err onto the telemetry outcome class the event bus
// carries (nil → ClassOK). The specific sentinels are tested before
// ErrTxnAborted because ctxErr wraps both a cause and ErrTxnAborted.
func ClassOf(err error) emit.Class {
	switch {
	case err == nil:
		return emit.ClassOK
	case errors.Is(err, ErrCycle):
		return emit.ClassCycle
	case errors.Is(err, ErrCrossCycle):
		return emit.ClassCrossCycle
	case errors.Is(err, ErrMisroute):
		return emit.ClassMisroute
	case errors.Is(err, ErrProtocol):
		return emit.ClassProtocol
	case errors.Is(err, ErrClosed):
		return emit.ClassClosed
	case errors.Is(err, ErrStragglerAborted):
		return emit.ClassStraggler
	case errors.Is(err, ErrTxnAborted),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return emit.ClassTxnAborted
	default:
		return emit.ClassInternal
	}
}

// stepErr wraps a taxonomy sentinel with the failing step's context. Only
// failure paths pay the allocation.
func stepErr(step model.Step, sentinel error) error {
	return fmt.Errorf("engine: %v: %w", step, sentinel)
}

// ctxErr reports a transaction killed by its context: both ErrTxnAborted
// and the context's cause (context.Canceled / context.DeadlineExceeded)
// are reachable through errors.Is.
func ctxErr(step model.Step, cause error) error {
	return fmt.Errorf("engine: %v: %w (%w)", step, ErrTxnAborted, cause)
}

// stragglerErr reports a transaction reaped by the retention governor:
// both ErrStragglerAborted and ErrTxnAborted are reachable through
// errors.Is, mirroring ctxErr's shape for context kills.
func stragglerErr(step model.Step) error {
	return fmt.Errorf("engine: %v: %w (%w)", step, ErrStragglerAborted, ErrTxnAborted)
}

// protocolErr reports a step the shard's scheduler refused as a protocol
// violation; the scheduler's own error says which.
func protocolErr(err error) error {
	return fmt.Errorf("engine: %w: %v", ErrProtocol, err)
}
