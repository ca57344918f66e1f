package engine

import (
	"context"
	"errors"
	"slices"
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

// TestPreparedGaugeWhilePrepared reads the prepared gauge where it is not
// zero: in the window between every participant's YES vote and the
// decision, each participant of a cross transaction over shards 0 and 1
// counts one prepared sub-transaction and the bystander shard 2 none, in
// Stats.PreparedByShard and Gauges().Prepared alike. The commit, and the
// abort of a final write whose context died in that window, bring every
// shard back to 0. Run under -race in CI.
func TestPreparedGaugeWhilePrepared(t *testing.T) {
	eng := New(Config{Shards: 3})
	defer eng.Close()
	gauges := func(when string, want []int64) {
		t.Helper()
		if got := eng.Stats().PreparedByShard; !slices.Equal(got, want) {
			t.Errorf("%s: PreparedByShard = %v, want %v", when, got, want)
		}
		if got := eng.Gauges().Prepared; !slices.Equal(got, want) {
			t.Errorf("%s: Gauges().Prepared = %v, want %v", when, got, want)
		}
	}
	for i, decision := range []string{"commit", "ctx abort"} {
		id := model.TxnID(i + 1)
		for _, st := range []model.Step{model.BeginDeclared(id, 0, 1), model.Read(id, 0)} {
			if res := submit(eng, st); !res.Accepted() {
				t.Fatalf("%s: %v: %v (%v)", decision, st, res.Outcome(), res.Err)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		hooked := 0
		testHookPrepared = func(model.TxnID) {
			hooked++
			gauges(decision+", prepared", []int64{1, 1, 0})
			if decision != "commit" {
				cancel()
			}
		}
		res := eng.SubmitCtx(ctx, model.WriteFinal(id, 0, 1))
		testHookPrepared = nil
		cancel()
		if hooked != 1 {
			t.Fatalf("%s: prepared hook ran %d times, want 1", decision, hooked)
		}
		if committed := res.Accepted() && res.CompletedTxn == id; committed != (decision == "commit") {
			t.Fatalf("%s: final write: %v (%v)", decision, res.Outcome(), res.Err)
		}
		gauges(decision+", decided", []int64{0, 0, 0})
	}
}

// TestDecisionStepsRefusedAtTheDoors: a two-phase-commit decision is a step
// only the engine sends its shards. Through either door a KindCommit or a
// KindAbort answers ErrProtocol and changes nothing: a live local
// transaction stays live, and a cross transaction stays begun, then
// prepared on every participant, until its own final write commits it.
func TestDecisionStepsRefusedAtTheDoors(t *testing.T) {
	eng := New(Config{Shards: 2})
	defer eng.Close()
	defer func() { testHookPrepared = nil }()
	refused := func(when string, ids ...model.TxnID) {
		t.Helper()
		var steps []model.Step
		for _, id := range ids {
			steps = append(steps, model.Step{Kind: model.KindCommit, Txn: id}, model.Step{Kind: model.KindAbort, Txn: id})
		}
		before := eng.Stats()
		results := eng.SubmitBatchInto(nil, steps)
		for _, st := range steps {
			results = append(results, eng.SubmitPriority(context.Background(), st, PriorityNormal))
		}
		for i, res := range results {
			if res.Outcome() != OutcomeError || !errors.Is(res.Err, ErrProtocol) || res.Aborted != model.NoTxn || res.CompletedTxn != model.NoTxn {
				t.Fatalf("%s: %v: %v aborted=%v completed=%v (%v), want ErrProtocol",
					when, steps[i%len(steps)], res.Outcome(), res.Aborted, res.CompletedTxn, res.Err)
			}
		}
		after := eng.Stats()
		if after.Accepted != before.Accepted || after.Rejected != before.Rejected || after.Aborted != before.Aborted ||
			after.Completed != before.Completed || after.CrossAborts != before.CrossAborts ||
			!slices.Equal(after.PreparedByShard, before.PreparedByShard) {
			t.Fatalf("%s: refused decisions changed the engine: %+v, then %+v", when, before, after)
		}
	}
	mustAccept(t, submit(eng, model.BeginDeclared(1, 0)))
	mustAccept(t, submit(eng, model.BeginDeclared(2, 0, 1)))
	mustAccept(t, submit(eng, model.Read(2, 1)))
	refused("begun", 1, 2)
	hooked := 0
	testHookPrepared = func(model.TxnID) {
		hooked++
		if got := eng.Stats().PreparedByShard; !slices.Equal(got, []int64{1, 1}) {
			t.Fatalf("prepared on %v, want both participants", got)
		}
		refused("prepared", 2)
	}
	if res := submit(eng, model.WriteFinal(2, 0, 1)); !res.Accepted() || res.CompletedTxn != 2 || hooked != 1 {
		t.Fatalf("T2's final write after %d prepared hooks: %v (%v), want its commit", hooked, res.Outcome(), res.Err)
	}
	if res := submit(eng, model.WriteFinal(1, 0)); !res.Accepted() || res.CompletedTxn != 1 {
		t.Fatalf("T1's final write: %v (%v), want its completion", res.Outcome(), res.Err)
	}
}

// TestCtxCancelBetweenPrepareAndDecision cancels a cross-partition final
// write's context in the exact window where every participant holds a
// prepared-but-undecided sub-transaction. The 2PC driver must decide
// ABORT: sub-nodes released, PreparedByShard drained to zero, and no
// cross-arc registry entry left behind. Run under -race in CI.
func TestCtxCancelBetweenPrepareAndDecision(t *testing.T) {
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

	// No registry entry leaked.
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
	// Without a policy nothing sweeps, yet the shards still report the
	// committed incarnation clean and the registry lets it go.
	if left := registryResidue(eng); left != 0 {
		t.Fatalf("cross-arc registry still tracks %d transactions after the reused T1 committed", left)
	}
}
