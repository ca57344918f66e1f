package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
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
			t.Fatalf("%v: %v (%v)", res.Step, res.Outcome(), res.Err)
		}
	}

	// ErrCycle: the classic two-transaction rw-cycle on one shard.
	must(eng.Submit(model.BeginDeclared(1, 0, 2)))
	must(eng.Submit(model.BeginDeclared(2, 0, 2)))
	must(eng.Submit(model.Read(1, 0)))
	must(eng.Submit(model.Read(2, 2)))
	must(eng.Submit(model.WriteFinal(2, 0)))
	res := eng.Submit(model.WriteFinal(1, 2))
	if res.Outcome() != OutcomeRejected || !errors.Is(res.Err, ErrCycle) {
		t.Fatalf("local cycle: %v (%v), want ErrCycle", res.Outcome(), res.Err)
	}

	// ErrTxnAborted: a step for the freshly-dead transaction.
	res = eng.Submit(model.Read(1, 0))
	if !errors.Is(res.Err, ErrTxnAborted) {
		t.Fatalf("dead-txn step err = %v, want ErrTxnAborted", res.Err)
	}

	// ErrMisroute: a declared partition-local transaction strays.
	must(eng.Submit(model.BeginDeclared(3, 0)))
	res = eng.Submit(model.Read(3, 1))
	if !errors.Is(res.Err, ErrMisroute) {
		t.Fatalf("misroute err = %v, want ErrMisroute", res.Err)
	}

	// ErrCrossCycle: two cross transactions whose shard-local paths compose
	// into a global cycle; the registry vetoes the second prepare.
	must(eng.Submit(model.BeginDeclared(10, 0, 1)))
	must(eng.Submit(model.BeginDeclared(11, 0, 1)))
	must(eng.Submit(model.Read(10, 0)))
	must(eng.Submit(model.Read(11, 1)))
	must(eng.Submit(model.WriteFinal(11, 0)))
	res = eng.Submit(model.WriteFinal(10, 1))
	if res.Outcome() != OutcomeRejected || !errors.Is(res.Err, ErrCrossCycle) {
		t.Fatalf("cross cycle: %v (%v), want ErrCrossCycle", res.Outcome(), res.Err)
	}

	// ErrProtocol: duplicate BEGIN (live ID), and a step kind outside the
	// basic model.
	must(eng.Submit(model.BeginDeclared(20, 0)))
	res = eng.Submit(model.BeginDeclared(20, 0))
	if res.Outcome() != OutcomeError || !errors.Is(res.Err, ErrProtocol) {
		t.Fatalf("duplicate begin: %v (%v), want ErrProtocol", res.Outcome(), res.Err)
	}
	res = eng.Submit(model.Write(20, 0))
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
	if res = eng.Submit(model.Read(20, 0)); !errors.Is(res.Err, ErrTxnAborted) {
		t.Fatalf("T20 should be dead after ctx abort, got %v", res.Err)
	}
	// A BEGIN under a cancelled context never starts.
	res = eng.SubmitCtx(ctx, model.BeginDeclared(21, 0))
	if res.Outcome() != OutcomeRejected || !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("cancelled-ctx begin: %v (%v)", res.Outcome(), res.Err)
	}
	if res = eng.Submit(model.BeginDeclared(21, 0)); !res.Accepted() {
		t.Fatalf("ID 21 should be free after refused begin: %v", res.Err)
	}

	// ErrClosed.
	eng2 := New(Config{Shards: 1})
	eng2.Close()
	if res = eng2.Submit(model.Begin(1)); !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("closed err = %v, want ErrClosed", res.Err)
	}
	// Both doors name the failing step, in the same words.
	batch := eng2.SubmitBatch([]model.Step{model.Begin(1)})
	if len(batch) != 1 || !errors.Is(batch[0].Err, ErrClosed) || batch[0].Err.Error() != res.Err.Error() {
		t.Fatalf("closed batch = %+v, want one result with Submit's error %q", batch, res.Err)
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
		{"overload", stepErr(step, ErrOverload), OutcomeRejected},
		{"txn-aborted", stepErr(step, ErrTxnAborted), OutcomeRejected},
		{"ctx-cancel", ctxErr(step, context.Canceled), OutcomeRejected},
		{"ctx-deadline", ctxErr(step, context.DeadlineExceeded), OutcomeRejected},
		{"straggler", stragglerErr(step), OutcomeRejected},
		{"protocol", stepErr(step, ErrProtocol), OutcomeError},
		{"closed", stepErr(step, ErrClosed), OutcomeError},
		{"journal-refusal", dead.refusal(step), OutcomeError},
	} {
		res := Result{Step: step, Err: tc.err}
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
			t.Fatalf("%v: %v (%v)", res.Step, res.Outcome(), res.Err)
		}
	}
	must(eng.Submit(model.BeginDeclared(1, 0, 1)))
	must(eng.Submit(model.Read(1, 0)))
	must(eng.Submit(model.Read(1, 1)))

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
	must(eng.Submit(model.BeginDeclared(1, 0, 1)))
	res = eng.Submit(model.WriteFinal(1, 0, 1))
	if !res.Accepted() || res.CompletedTxn != 1 {
		t.Fatalf("reused T1 final: %v (%v)", res.Outcome(), res.Err)
	}
}

// blockingPolicy wedges its shard inside a GC sweep until the gate is
// closed — a deterministic way to pile up a submission backlog. entered is
// closed when the first sweep reaches the gate, so a test knows the shard
// is wedged however many requests its run drained first.
type blockingPolicy struct {
	gate, entered chan struct{}
	once          sync.Once
}

func newBlockingPolicy() *blockingPolicy {
	return &blockingPolicy{gate: make(chan struct{}), entered: make(chan struct{})}
}

func (p *blockingPolicy) Name() string { return "test-block" }
func (p *blockingPolicy) Sweep(sw *core.Sweep) {
	p.once.Do(func() { close(p.entered) })
	<-p.gate
}

// TestOverloadShedsBegins saturates a shard (its lock holder wedged in a
// sweep, submitters stacked behind the lock) and asserts that admission control sheds
// further BEGINs with ErrOverload instead of blocking, that a PriorityHigh
// BEGIN is exempt, and that the engine drains cleanly once the shard
// resumes — no deadlock anywhere.
func TestOverloadShedsBegins(t *testing.T) {
	const watermark = 4
	pol := newBlockingPolicy()
	eng := New(Config{
		Shards:            1,
		Policy:            func() core.Policy { return pol },
		OverloadWatermark: watermark,
	})
	defer eng.Close()

	// Complete one transaction; the sweep that follows wedges the shard.
	// The submitter of the final write runs that sweep itself, so it
	// submits from a goroutine of its own and returns once the gate opens.
	if res := eng.Submit(model.BeginDeclared(1, 0)); !res.Accepted() {
		t.Fatalf("begin: %v (%v)", res.Outcome(), res.Err)
	}
	final := make(chan Result, 1)
	go func() { final <- eng.Submit(model.WriteFinal(1, 0)) }()
	<-pol.entered

	// Stack submitters on the wedged shard until the backlog passes the
	// watermark. The first submitter goes alone so its ID (10) is known to
	// be routed before the duplicate check below.
	var wg sync.WaitGroup
	const stacked = watermark + 2
	results := make([]Result, stacked)
	spawn := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = eng.SubmitPriority(context.Background(), model.BeginDeclared(model.TxnID(10+i), 0), PriorityHigh)
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	spawn(0)
	for eng.shards[0].depth.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first submitter never enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < stacked; i++ {
		spawn(i)
	}
	for eng.shards[0].depth.Load() < watermark {
		if time.Now().After(deadline) {
			t.Fatal("backlog never reached the watermark")
		}
		time.Sleep(time.Millisecond)
	}

	// A normal-priority BEGIN is shed immediately — it never waits for the
	// lock.
	res := eng.Submit(model.BeginDeclared(99, 0))
	if res.Outcome() != OutcomeRejected || !errors.Is(res.Err, ErrOverload) {
		t.Fatalf("overloaded begin: %v (%v), want rejected/ErrOverload", res.Outcome(), res.Err)
	}
	// A duplicate of a routed ID is a protocol bug even under overload —
	// the saturation must not relabel it as retryable.
	res = eng.Submit(model.BeginDeclared(10, 0))
	if res.Outcome() != OutcomeError || !errors.Is(res.Err, ErrProtocol) || errors.Is(res.Err, ErrOverload) {
		t.Fatalf("duplicate begin under overload: %v (%v), want ErrProtocol", res.Outcome(), res.Err)
	}
	// The shed ID was never consumed: admitting it later must succeed.
	close(pol.gate)
	if res := <-final; !res.Accepted() {
		t.Fatalf("final: %v (%v)", res.Outcome(), res.Err)
	}
	wg.Wait()
	for i, r := range results {
		if !r.Accepted() {
			t.Fatalf("stacked high-priority begin %d: %v (%v) — the watermark must not shed PriorityHigh", i, r.Outcome(), r.Err)
		}
	}
	if res := eng.Submit(model.BeginDeclared(99, 0)); !res.Accepted() {
		t.Fatalf("begin after drain: %v (%v)", res.Outcome(), res.Err)
	}
	s := eng.Stats()
	if s.Shed != 1 {
		t.Fatalf("Stats.Shed = %d, want 1", s.Shed)
	}
}
