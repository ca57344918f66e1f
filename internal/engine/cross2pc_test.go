package engine

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/store"
)

// registrySize is the number of cross transactions the registry tracks.
func registrySize(eng *Engine) int {
	eng.registry.mu.Lock()
	defer eng.registry.mu.Unlock()
	return len(eng.registry.txns)
}

// TestCrossFanOutBeyondWindowCap: a cross transaction over more shards than
// a part's 64-bit mask has bits begins, reads on participants on both sides
// of the 64th, and commits; a second one over the same shards is aborted
// through Engine.Abort. Every phase must reach every participant once and
// only once: no sub-transaction stays prepared, none of the aborted one
// stays anywhere, and the registry ends empty.
func TestCrossFanOutBeyondWindowCap(t *testing.T) {
	const shards = windowCap + 6
	eng := New(Config{Shards: shards, Policy: func() core.Policy { return core.GreedyC1{} }})
	defer eng.Close()
	all := make([]model.Entity, shards)
	for i := range all {
		all[i] = model.Entity(i)
	}
	mustAccept(t, submit(eng, model.BeginDeclared(1, all...)))
	for _, x := range []model.Entity{0, 1, windowCap - 1, windowCap, shards - 1} {
		mustAccept(t, submit(eng, model.Read(1, x)))
	}
	if res := submit(eng, model.WriteFinal(1, all...)); !res.Accepted() || res.CompletedTxn != 1 {
		t.Fatalf("final write over %d shards: %v (%v), CompletedTxn=%v", shards, res.Outcome(), res.Err, res.CompletedTxn)
	}
	mustAccept(t, submit(eng, model.BeginDeclared(2, all...)))
	mustAccept(t, submit(eng, model.Read(2, shards-1)))
	if !eng.Abort(2) {
		t.Fatal("Abort(2) did not apply")
	}
	if res := submit(eng, model.Read(2, 0)); !errors.Is(res.Err, ErrTxnAborted) {
		t.Fatalf("read after the abort answered %v, want ErrTxnAborted", res.Err)
	}
	s := eng.Stats()
	if s.CrossTxns != 2 || s.Prepares != shards || s.Completed != 1 || s.CrossAborts != 1 {
		t.Fatalf("stats: %d cross, %d prepares, %d completed, %d cross aborts; want 2, %d, 1, 1",
			s.CrossTxns, s.Prepares, s.Completed, s.CrossAborts, shards)
	}
	for i, n := range s.PreparedByShard {
		if n != 0 {
			t.Fatalf("shard %d still holds %d prepared subs", i, n)
		}
	}
	if n := registrySize(eng); n != 0 {
		t.Fatalf("registry still tracks %d transactions", n)
	}
	// Close first: no later run applies anything, so the schedulers are safe
	// to inspect directly.
	eng.Close()
	for _, sh := range eng.shards {
		if st := sh.sched.Txn(1); st != nil && st.Status != model.StatusCompleted {
			t.Fatalf("shard %d keeps T1 in state %v", sh.idx, st.Status)
		}
		if sh.sched.Txn(2) != nil {
			t.Fatalf("shard %d keeps a sub-node of the aborted T2", sh.idx)
		}
	}
}

// describe is one answer as TestCross2PCRefusedByClose pins it.
func describe(res Result) string {
	return fmt.Sprintf("%v A%d C%d closed=%t txnAborted=%t err=%v", res.Outcome(), res.Aborted, res.CompletedTxn,
		errors.Is(res.Err, ErrClosed), errors.Is(res.Err, ErrTxnAborted), res.Err)
}

// TestCross2PCRefusedByClose closes the engine at each shard visit of one
// cross transaction over three shards in turn — three sub-begins, three
// reads, three prepares, the commit point and two later commits — and pins
// every answer the transaction's five steps get. The visit that sees the
// close applies nothing, and neither does any later one. A participant that
// could not run answers as a closed engine does, with the whole step's text;
// one whose journal had already failed answers with the journal's failure.
func TestCross2PCRefusedByClose(t *testing.T) {
	steps := []model.Step{
		model.BeginDeclared(1, 0, 1, 2),
		model.Read(1, 0), model.Read(1, 1), model.Read(1, 2),
		model.WriteFinal(1, 0, 1, 2),
	}
	// The answers a step can get here: accepted, accepted as T1's
	// completion, the closed engine's refusal, and T1 aborted by a prepare
	// the close refused.
	answers := map[string]func(model.Step) string{
		"ok":     func(model.Step) string { return "accepted A-1 C-1 closed=false txnAborted=false err=<nil>" },
		"commit": func(model.Step) string { return "accepted A-1 C1 closed=false txnAborted=false err=<nil>" },
		"closed": func(st model.Step) string {
			return fmt.Sprintf("error A-1 C-1 closed=true txnAborted=false err=engine: %v: engine: closed", st)
		},
		"abort": func(st model.Step) string {
			return fmt.Sprintf("error A1 C-1 closed=true txnAborted=false err=engine: %v: engine: closed", st)
		},
	}
	// want[n] is what the five steps answer when the n-th visit sees the
	// close; the 13th never comes.
	want := []string{
		1:  "closed closed closed closed closed", // sub-begins
		2:  "closed closed closed closed closed",
		3:  "closed closed closed closed closed",
		4:  "ok closed closed closed closed", // reads
		5:  "ok ok closed closed closed",
		6:  "ok ok ok closed closed",
		7:  "ok ok ok ok abort", // prepares
		8:  "ok ok ok ok abort",
		9:  "ok ok ok ok abort",
		10: "ok ok ok ok closed", // the commit point
		11: "ok ok ok ok closed", // the later commits
		12: "ok ok ok ok closed",
		13: "ok ok ok ok commit",
	}
	defer func() { testHookRoundTrip = nil }()
	for n := 1; n < len(want); n++ {
		eng := New(Config{Shards: 3})
		visits := 0
		testHookRoundTrip = func(*shard) {
			if visits++; visits == n {
				eng.closed.Store(true)
			}
		}
		for i, code := range strings.Fields(want[n]) {
			if got, want := describe(submit(eng, steps[i])), answers[code](steps[i]); got != want {
				t.Errorf("closed at visit %d: %v answered\n %s\nwant\n %s", n, steps[i], got, want)
			}
		}
		testHookRoundTrip = nil
		if n == len(want)-1 && visits != n-1 {
			t.Errorf("the transaction took %d shard visits, want %d", visits, n-1)
		}
		eng.Close()
	}

	// Shard 1's journal fails on a local transaction's flush while the cross
	// transaction is mid-reads; its prepare is refused with that failure.
	dir := t.TempDir()
	var armed atomic.Bool
	fs, err := store.OpenFile(dir, 3, store.Options{Failpoint: func(op store.FailOp) error {
		if armed.Load() && op.Shard == 1 {
			return errInjectedCrash
		}
		return nil
	}})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	defer fs.Close()
	eng, _, err := Open(Config{Shards: 3, Store: fs})
	if err != nil {
		t.Fatalf("open engine: %v", err)
	}
	defer eng.Close()
	for _, st := range steps[:4] {
		mustAccept(t, submit(eng, st))
	}
	armed.Store(true)
	mustAccept(t, submit(eng, model.BeginDeclared(2, 1)))
	got := describe(submit(eng, steps[4]))
	if want := "error A1 C-1 closed=true txnAborted=false err=engine: shard 1 journal failed " +
		"(store: shard 1 wal write: injected crash): T1:W[1]: engine: closed"; got != want {
		t.Fatalf("prepare on a fail-stopped shard answered\n %s\nwant\n %s", got, want)
	}
	for i, n := range eng.Gauges().Prepared {
		if n != 0 {
			t.Fatalf("shard %d still holds %d prepared subs", i, n)
		}
	}
	if n := registrySize(eng); n != 0 {
		t.Fatalf("registry still tracks %d transactions", n)
	}
}

// TestRetirementCascadeRetiresOnce is the regression for a record reached
// twice in one retirement cascade. Three cross transactions on two shards
// carry the reach-arcs T1→T2, T1→T3 and T2→T3, and every sub-node is
// reported clean, T1's last: its retirement cascades to T2 and T3, and when
// T1's walk meets T2 first, T2's own cascade retires T3 before T1's walk
// gets to it. Each participant must be told of each retirement exactly
// once, and the registry must end empty. The walk follows map order, so
// the test repeats to take both orders.
func TestRetirementCascadeRetiresOnce(t *testing.T) {
	for round := 0; round < 64; round++ {
		r := newCrossRegistry(2)
		for id := model.TxnID(1); id <= 3; id++ {
			ct := &crossTxn{id: id, parts: []int{0, 1}, clean: make([]bool, 2)}
			if !r.register(ct) {
				t.Fatalf("round %d: T%d refused by an empty registry", round, id)
			}
		}
		for _, arc := range [][2]model.TxnID{{1, 2}, {1, 3}, {2, 3}} {
			if !r.OnCrossReach(arc[0], arc[1]) {
				t.Fatalf("round %d: reach-arc T%d→T%d vetoed", round, arc[0], arc[1])
			}
		}
		for p := range 2 {
			r.reportClean(p, 3, 2, 1)
		}
		for p := range 2 {
			ids := r.take(p, nil)
			slices.Sort(ids)
			if !slices.Equal(ids, []model.TxnID{1, 2, 3}) {
				t.Fatalf("round %d: shard %d told of retirements %v, want [1 2 3]", round, p, ids)
			}
		}
		if n := len(r.txns); n != 0 {
			t.Fatalf("round %d: registry still tracks %d transactions", round, n)
		}
	}
}

// trackedRecord is the record the registry tracks under id, or nil.
func trackedRecord(eng *Engine, id model.TxnID) *crossTxn {
	eng.registry.mu.Lock()
	defer eng.registry.mu.Unlock()
	return eng.registry.txns[id]
}

// TestCrossRecordLifecycle follows the one record of a cross transaction
// through the route map and the registry. From BEGIN both name the same
// record. A commit behind a straggler deletes the route, but the registry
// keeps the record, its steps naming no entity of the final write, until
// the straggler ends. A NO vote, a misroute, a client abort and a refused
// sub-begin leave neither map holding the transaction.
func TestCrossRecordLifecycle(t *testing.T) {
	eng := New(Config{Shards: 4}) // nogc: a completed local transaction stays
	defer eng.Close()
	gone := func(what string, id model.TxnID) {
		t.Helper()
		if _, live := eng.routes.load(id); live {
			t.Fatalf("%s: T%d's route left behind", what, id)
		}
		if ct := trackedRecord(eng, id); ct != nil {
			t.Fatalf("%s: the registry still tracks T%d", what, id)
		}
	}

	// Commit behind straggler T1, which reads e0 before cross T5 writes it,
	// so shard 0 cannot report T5 clean.
	mustAccept(t, submit(eng, model.BeginDeclared(1, 0)))
	mustAccept(t, submit(eng, model.Read(1, 0)))
	mustAccept(t, submit(eng, model.BeginDeclared(5, 0, 1)))
	r, _ := eng.routes.load(5)
	ct := r.ct
	if ct == nil || trackedRecord(eng, 5) != ct {
		t.Fatal("after BEGIN, the route and the registry name different records")
	}
	if res := submit(eng, model.WriteFinal(5, 0, 1)); res.CompletedTxn != 5 {
		t.Fatalf("T5's final write: %v (%v)", res.Outcome(), res.Err)
	}
	if _, live := eng.routes.load(5); live {
		t.Fatal("after the commit, T5's route is left behind")
	}
	if trackedRecord(eng, 5) != ct {
		t.Fatal("T5 left the registry behind a live straggler")
	}
	ct.mu.Lock()
	for i, st := range ct.steps {
		if len(st.Entities) != 0 {
			t.Errorf("the retained record's step %d names %v of the final write", i, st.Entities)
		}
	}
	ct.mu.Unlock()
	mustAccept(t, submit(eng, model.WriteFinal(1, 4)))
	if left := registryResidue(eng); left != 0 {
		t.Fatalf("registry still tracks %d transactions after the straggler ended", left)
	}
	gone("retired", 5)

	// A NO vote: T6 reads e0 and T7 reads e1; T7's write of e0 places the
	// reach-arc T6→T7 and commits, and T6's write of e1 would close the
	// cycle, so shard 1 votes NO.
	mustAccept(t, submit(eng, model.BeginDeclared(6, 0, 1)))
	mustAccept(t, submit(eng, model.BeginDeclared(7, 0, 1)))
	mustAccept(t, submit(eng, model.Read(6, 0)))
	mustAccept(t, submit(eng, model.Read(7, 1)))
	mustAccept(t, submit(eng, model.WriteFinal(7, 0)))
	if res := submit(eng, model.WriteFinal(6, 1)); !errors.Is(res.Err, ErrCrossCycle) {
		t.Fatalf("T6's final write answered %v, want ErrCrossCycle", res.Err)
	}
	gone("NO vote", 6)

	// A misroute: T8 on shards {0,1} reads e2, owned by shard 2.
	mustAccept(t, submit(eng, model.BeginDeclared(8, 0, 1)))
	if res := submit(eng, model.Read(8, 2)); !errors.Is(res.Err, ErrMisroute) {
		t.Fatalf("T8's read outside its participants answered %v, want ErrMisroute", res.Err)
	}
	gone("misroute", 8)

	// A client abort.
	mustAccept(t, submit(eng, model.BeginDeclared(9, 2, 3)))
	mustAccept(t, submit(eng, model.Read(9, 3)))
	if !eng.Abort(9) {
		t.Fatal("Abort(9) did not apply")
	}
	gone("client abort", 9)

	// A refused sub-begin: local T10 stays completed on shard 2, so the
	// cross BEGIN reusing its ID is refused there and rolled back.
	mustAccept(t, submit(eng, model.BeginDeclared(10, 2)))
	mustAccept(t, submit(eng, model.WriteFinal(10, 2)))
	if res := submit(eng, model.BeginDeclared(10, 2, 3)); !errors.Is(res.Err, ErrProtocol) {
		t.Fatalf("cross BEGIN reusing local T10 answered %v, want ErrProtocol", res.Err)
	}
	gone("refused sub-begin", 10)
}
