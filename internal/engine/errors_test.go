package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/model"
)

// TestResultErrTaxonomyRoundTrip produces every member of the error
// taxonomy through the real engine paths and asserts it survives the
// wrapping with step context — errors.Is must hold end to end, and every
// non-accepted Result must carry a non-nil Err.
func TestResultErrTaxonomyRoundTrip(t *testing.T) {
	eng := New(Config{Shards: 2})
	defer eng.Close()
	must := func(res Result) {
		t.Helper()
		if !res.Accepted() || res.Err != nil {
			t.Fatalf("%v (%v)", res.Outcome(), res.Err)
		}
	}

	// ErrCycle: the classic two-transaction rw-cycle on one shard.
	must(submit(eng, model.BeginDeclared(1, 0, 2)))
	must(submit(eng, model.BeginDeclared(2, 0, 2)))
	must(submit(eng, model.Read(1, 0)))
	must(submit(eng, model.Read(2, 2)))
	must(submit(eng, model.WriteFinal(2, 0)))
	res := submit(eng, model.WriteFinal(1, 2))
	if res.Outcome() != OutcomeRejected || !errors.Is(res.Err, ErrCycle) {
		t.Fatalf("local cycle: %v (%v), want ErrCycle", res.Outcome(), res.Err)
	}

	// ErrTxnAborted: a step for the freshly-dead transaction.
	res = submit(eng, model.Read(1, 0))
	if !errors.Is(res.Err, ErrTxnAborted) {
		t.Fatalf("dead-txn step err = %v, want ErrTxnAborted", res.Err)
	}

	// ErrMisroute: a declared partition-local transaction strays.
	must(submit(eng, model.BeginDeclared(3, 0)))
	res = submit(eng, model.Read(3, 1))
	if !errors.Is(res.Err, ErrMisroute) {
		t.Fatalf("misroute err = %v, want ErrMisroute", res.Err)
	}

	// ErrCrossCycle: two cross transactions whose shard-local paths compose
	// into a global cycle; the registry vetoes the second prepare.
	must(submit(eng, model.BeginDeclared(10, 0, 1)))
	must(submit(eng, model.BeginDeclared(11, 0, 1)))
	must(submit(eng, model.Read(10, 0)))
	must(submit(eng, model.Read(11, 1)))
	must(submit(eng, model.WriteFinal(11, 0)))
	res = submit(eng, model.WriteFinal(10, 1))
	if res.Outcome() != OutcomeRejected || !errors.Is(res.Err, ErrCrossCycle) {
		t.Fatalf("cross cycle: %v (%v), want ErrCrossCycle", res.Outcome(), res.Err)
	}

	// ErrProtocol: duplicate BEGIN (live ID), and a step kind outside the
	// basic model.
	must(submit(eng, model.BeginDeclared(20, 0)))
	res = submit(eng, model.BeginDeclared(20, 0))
	if res.Outcome() != OutcomeError || !errors.Is(res.Err, ErrProtocol) {
		t.Fatalf("duplicate begin: %v (%v), want ErrProtocol", res.Outcome(), res.Err)
	}
	res = submit(eng, model.Write(20, 0))
	if !errors.Is(res.Err, ErrProtocol) {
		t.Fatalf("bad kind err = %v, want ErrProtocol", res.Err)
	}

	// ErrTxnAborted via context: an access step under a cancelled context
	// aborts its transaction and reports both the taxonomy member and the
	// context cause.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res = eng.SubmitCtx(ctx, model.Read(20, 0))
	if res.Outcome() != OutcomeRejected || !errors.Is(res.Err, ErrTxnAborted) || !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("cancelled-ctx step: %v (%v), want ErrTxnAborted + context.Canceled", res.Outcome(), res.Err)
	}
	if res = submit(eng, model.Read(20, 0)); !errors.Is(res.Err, ErrTxnAborted) {
		t.Fatalf("T20 should be dead after ctx abort, got %v", res.Err)
	}
	// A BEGIN under a cancelled context never starts.
	res = eng.SubmitCtx(ctx, model.BeginDeclared(21, 0))
	if res.Outcome() != OutcomeRejected || !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("cancelled-ctx begin: %v (%v)", res.Outcome(), res.Err)
	}
	if res = submit(eng, model.BeginDeclared(21, 0)); !res.Accepted() {
		t.Fatalf("ID 21 should be free after refused begin: %v", res.Err)
	}

	// ErrClosed.
	eng2 := New(Config{Shards: 1})
	eng2.Close()
	if res = submit(eng2, model.Begin(1)); !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("closed err = %v, want ErrClosed", res.Err)
	}
	// Both doors name the failing step, in the same words.
	batch := eng2.SubmitBatchInto(nil, []model.Step{model.Begin(1)})
	if len(batch) != 1 || !errors.Is(batch[0].Err, ErrClosed) || batch[0].Err.Error() != res.Err.Error() {
		t.Fatalf("closed batch = %+v, want one result with SubmitCtx's error %q", batch, res.Err)
	}
	if !strings.Contains(res.Err.Error(), model.Begin(1).String()) {
		t.Fatalf("closed err %q does not name the step", res.Err)
	}
}

// TestOutcomeDerivedFromErr pins Result.Outcome to the rule errors.go
// states: nil is accepted, ErrProtocol or ErrClosed (however deeply
// wrapped) is an error, every other member of the taxonomy is a rejection.
func TestOutcomeDerivedFromErr(t *testing.T) {
	step := model.Read(7, 3)
	dead := journal{shard: 2, err: errors.New("disk gone")}
	for _, tc := range []struct {
		name string
		err  error
		want Outcome
	}{
		{"accepted", nil, OutcomeAccepted},
		{"cycle", stepErr(step, ErrCycle), OutcomeRejected},
		{"cross-cycle", stepErr(step, ErrCrossCycle), OutcomeRejected},
		{"misroute", stepErr(step, ErrMisroute), OutcomeRejected},
		{"txn-aborted", stepErr(step, ErrTxnAborted), OutcomeRejected},
		{"ctx-cancel", ctxErr(step, context.Canceled), OutcomeRejected},
		{"ctx-deadline", ctxErr(step, context.DeadlineExceeded), OutcomeRejected},
		{"straggler", stragglerErr(step), OutcomeRejected},
		{"protocol", stepErr(step, ErrProtocol), OutcomeError},
		{"closed", stepErr(step, ErrClosed), OutcomeError},
		{"journal-refusal", dead.refusal(step), OutcomeError},
	} {
		res := Result{Err: tc.err}
		if got := res.Outcome(); got != tc.want {
			t.Errorf("%s: Outcome() = %v, want %v (err %v)", tc.name, got, tc.want, tc.err)
		}
		if res.Accepted() != (tc.want == OutcomeAccepted) {
			t.Errorf("%s: Accepted() = %v disagrees with Outcome() %v", tc.name, res.Accepted(), tc.want)
		}
	}
}

// TestCtxCancelBetweenPrepareAndDecision cancels a cross-partition final
// write's context in the exact window where every participant holds a
// prepared-but-undecided (pinned) sub-transaction. The 2PC driver must
// decide ABORT: pins released, PreparedByShard drained to zero, and no
// cross-arc registry entry left behind. Run under -race in CI.
func TestCtxCancelBetweenPrepareAndDecision(t *testing.T) {
	debts := meterDebts(2, nil)
	defer func() { testHookCrossClean = nil }()
	eng := New(Config{Shards: 2})
	defer eng.Close()
	must := func(res Result) {
		t.Helper()
		if !res.Accepted() {
			t.Fatalf("%v (%v)", res.Outcome(), res.Err)
		}
	}
	must(submit(eng, model.BeginDeclared(1, 0, 1)))
	must(submit(eng, model.Read(1, 0)))
	must(submit(eng, model.Read(1, 1)))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	testHookPrepared = func(id model.TxnID) {
		if id == 1 {
			cancel()
		}
	}
	defer func() { testHookPrepared = nil }()

	res := eng.SubmitCtx(ctx, model.WriteFinal(1, 0, 1))
	if res.Outcome() != OutcomeRejected || res.Aborted != 1 {
		t.Fatalf("final under mid-2PC cancel: %v (%v), want rejected abort of T1", res.Outcome(), res.Err)
	}
	if !errors.Is(res.Err, ErrTxnAborted) || !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("err = %v, want ErrTxnAborted + context.Canceled", res.Err)
	}

	s := eng.Stats()
	if s.Prepares != 2 {
		t.Fatalf("Prepares = %d, want 2 (both participants voted before the cancel)", s.Prepares)
	}
	for i, p := range s.PreparedByShard {
		if p != 0 {
			t.Fatalf("shard %d still pins %d prepared sub-transactions after the ctx abort", i, p)
		}
	}
	if s.CrossAborts != 1 || s.Completed != 0 {
		t.Fatalf("stats = %+v, want 1 cross abort and 0 completions", s)
	}

	// No registry entry leaked (and no stale cleanliness debt).
	if n := debts.total(); n != 0 {
		t.Errorf("the shards still owe %d cleanliness reports", n)
	}
	eng.registry.mu.Lock()
	live := len(eng.registry.txns)
	eng.registry.mu.Unlock()
	if live != 0 {
		t.Fatalf("cross-arc registry still tracks %d transactions after the abort", live)
	}

	// The ID is fully released: a fresh incarnation begins and commits.
	testHookPrepared = nil
	must(submit(eng, model.BeginDeclared(1, 0, 1)))
	res = submit(eng, model.WriteFinal(1, 0, 1))
	if !res.Accepted() || res.CompletedTxn != 1 {
		t.Fatalf("reused T1 final: %v (%v)", res.Outcome(), res.Err)
	}
}
