package client

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// TestErrorCodeTable pins the wire code of every error a door returns: each
// sentinel as the engine wraps it with the failing step, a context kill and
// a straggler reap (both also wrap ErrTxnAborted), a session's later
// operation after a rejection (ErrTxnAborted around the rejection's cause),
// and an error outside the taxonomy. The wrapped shapes are the engine's
// stepErr, ctxErr and stragglerErr and the session's noteLocked.
func TestErrorCodeTable(t *testing.T) {
	step := func(sentinel error) error { return fmt.Errorf("engine: T1:r(4): %w", sentinel) }
	for _, tc := range []struct {
		name string
		err  error
		want string
	}{
		{"nil", nil, ""},
		{"cycle", step(ErrCycle), "cycle"},
		{"cross-cycle", step(ErrCrossCycle), "cross-cycle"},
		{"misroute", step(ErrMisroute), "misroute"},
		{"txn-aborted", step(ErrTxnAborted), "txn-aborted"},
		{"protocol", step(ErrProtocol), "protocol"},
		{"closed", step(ErrClosed), "closed"},
		{"straggler", step(ErrStragglerAborted), "straggler-aborted"},
		{"ctxErr canceled", fmt.Errorf("engine: T1:r(4): %w (%w)", ErrTxnAborted, context.Canceled), "txn-aborted"},
		{"ctxErr deadline", fmt.Errorf("engine: T1:r(4): %w (%w)", ErrTxnAborted, context.DeadlineExceeded), "txn-aborted"},
		{"stragglerErr", fmt.Errorf("engine: T1:r(4): %w (%w)", ErrStragglerAborted, ErrTxnAborted), "straggler-aborted"},
		{"after a cycle", fmt.Errorf("client: T1: %w (%w)", ErrTxnAborted, step(ErrCycle)), "cycle"},
		{"after a close", fmt.Errorf("client: T1: %w (%w)", ErrTxnAborted, step(ErrClosed)), "closed"},
		{"foreign", errors.New("disk on fire"), "internal"},
		{"bare context.Canceled", context.Canceled, "txn-aborted"},
	} {
		if got := ErrorCode(tc.err); got != tc.want {
			t.Errorf("%s: ErrorCode(%v) = %q, want %q", tc.name, tc.err, got, tc.want)
		}
	}
}
