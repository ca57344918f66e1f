package client

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/store"
	"repro/internal/workload"
)

func open(t *testing.T, cfg Config) *DB {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := db.Close(); err != nil {
			t.Errorf("Close (verify): %v", err)
		}
	})
	return db
}

// TestSessionLifecycle drives one local session begin → read → write and
// checks the terminal-state protocol around it.
func TestSessionLifecycle(t *testing.T) {
	db := open(t, Config{Shards: 4, Policy: "greedy-c1", Verify: true})
	ctx := context.Background()

	txn, err := db.Begin(ctx, WithFootprint(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Read(ctx, 4); err != nil {
		t.Fatal(err)
	}
	if err := txn.Write(ctx, 0); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if txn.Err() != nil {
		t.Fatalf("Err after commit = %v, want nil", txn.Err())
	}
	// Operations after commit are protocol errors; the commit stands.
	if err := txn.Read(ctx, 4); !errors.Is(err, ErrProtocol) {
		t.Fatalf("read after commit = %v, want ErrProtocol", err)
	}
	if err := txn.Abort(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("abort after commit = %v, want ErrProtocol", err)
	}
	if s := db.Stats(); s.Completed != 1 {
		t.Fatalf("Completed = %d, want 1", s.Completed)
	}

	// Abort path: idempotent, and later operations report ErrTxnAborted.
	txn2, err := db.Begin(ctx, WithFootprint(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := txn2.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := txn2.Abort(); err != nil {
		t.Fatalf("second abort = %v, want nil", err)
	}
	if err := txn2.Read(ctx, 1); !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("read after abort = %v, want ErrTxnAborted", err)
	}
	if !errors.Is(txn2.Err(), ErrTxnAborted) {
		t.Fatalf("Err after abort = %v, want ErrTxnAborted", txn2.Err())
	}
}

// TestCrossShardSession commits a session spanning two partitions through
// the 2PC path while a local bystander on a participating shard survives.
func TestCrossShardSession(t *testing.T) {
	db := open(t, Config{Shards: 4, Policy: "greedy-c1", Verify: true})
	ctx := context.Background()

	bystander, err := db.Begin(ctx, WithFootprint(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := bystander.Read(ctx, 4); err != nil {
		t.Fatal(err)
	}

	cross, err := db.Begin(ctx, WithFootprint(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := cross.Read(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := cross.Write(ctx, 2); err != nil {
		t.Fatalf("cross commit: %v", err)
	}
	if err := bystander.Write(ctx, 4); err != nil {
		t.Fatalf("bystander survived 2PC but could not commit: %v", err)
	}

	s := db.Stats()
	if s.CrossTxns != 1 || s.Prepares != 2 {
		t.Fatalf("stats = %+v, want 1 cross txn / 2 prepares", s)
	}
}

// TestWithShards declares participants directly and roams both partitions.
func TestWithShards(t *testing.T) {
	db := open(t, Config{Shards: 4, Verify: true})
	ctx := context.Background()

	txn, err := db.Begin(ctx, WithShards(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Entities 5 (shard 1) and 7 (shard 3) were never named at Begin.
	if err := txn.Read(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if err := txn.Read(ctx, 7); err != nil {
		t.Fatal(err)
	}
	if err := txn.Write(ctx); err != nil { // read-only commit
		t.Fatal(err)
	}
	if _, err := db.Begin(ctx, WithShards(4)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("out-of-range shard = %v, want ErrProtocol", err)
	}
}

// TestTaxonomyThroughClient exercises every taxonomy member end to end
// through the session API.
func TestTaxonomyThroughClient(t *testing.T) {
	db := open(t, Config{Shards: 2, Verify: true})
	ctx := context.Background()

	// ErrCycle: T_a and T_b read each other's write targets on shard 0.
	a, _ := db.Begin(ctx, WithFootprint(0, 2))
	b, _ := db.Begin(ctx, WithFootprint(0, 2))
	if err := a.Read(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Read(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(ctx, 0); err != nil {
		t.Fatal(err)
	}
	err := a.Write(ctx, 2)
	if !errors.Is(err, ErrCycle) {
		t.Fatalf("cycle-closing write = %v, want ErrCycle", err)
	}
	if !errors.Is(a.Err(), ErrCycle) {
		t.Fatalf("session Err = %v, want ErrCycle", a.Err())
	}

	// ErrCrossCycle: shard-local paths composing into a global cycle.
	c1, _ := db.Begin(ctx, WithFootprint(0, 1))
	c2, _ := db.Begin(ctx, WithFootprint(0, 1))
	if err := c1.Read(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := c2.Read(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := c2.Write(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := c1.Write(ctx, 1); !errors.Is(err, ErrCrossCycle) {
		t.Fatalf("global-cycle write = %v, want ErrCrossCycle", err)
	}

	// ErrMisroute: a local session strays off its partition.
	m, _ := db.Begin(ctx, WithFootprint(0))
	if err := m.Read(ctx, 1); !errors.Is(err, ErrMisroute) {
		t.Fatalf("foreign read = %v, want ErrMisroute", err)
	}
	if err := m.Read(ctx, 0); !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("read after misroute = %v, want ErrTxnAborted", err)
	}

	// ErrProtocol: duplicate WithID against a live session.
	p, err := db.Begin(ctx, WithID(1000), WithFootprint(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Begin(ctx, WithID(1000), WithFootprint(0)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("duplicate WithID = %v, want ErrProtocol", err)
	}
	if err := p.Abort(); err != nil {
		t.Fatal(err)
	}

	// Unknown policy names are protocol errors at Open.
	if _, err := Open(Config{Policy: "alchemy"}); !errors.Is(err, ErrProtocol) {
		t.Fatalf("bad policy = %v, want ErrProtocol", err)
	}

	// ErrClosed: sessions against a closed DB.
	db2, err := Open(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Begin(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("begin on closed DB = %v, want ErrClosed", err)
	}
}

// TestContextDeadlineAbortsSession: a session whose Begin deadline expires
// while it idles is aborted by the expiry callback, and both the taxonomy member
// and the context cause are visible.
func TestContextDeadlineAbortsSession(t *testing.T) {
	db := open(t, Config{Shards: 2, Verify: true})
	bg := context.Background()

	ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	defer cancel()
	txn, err := db.Begin(ctx, WithFootprint(0, 1)) // cross: pins + registry state to release
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Read(ctx, 0); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for txn.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("the expiry callback never aborted the expired session")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(txn.Err(), ErrTxnAborted) || !errors.Is(txn.Err(), context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want ErrTxnAborted + DeadlineExceeded", txn.Err())
	}
	if err := txn.Write(bg, 0); !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("write after expiry = %v, want ErrTxnAborted", err)
	}
	s := db.Stats()
	if s.Aborted != 1 {
		t.Fatalf("Aborted = %d, want 1", s.Aborted)
	}
	for i, p := range s.PreparedByShard {
		if p != 0 {
			t.Fatalf("shard %d leaked %d prepared pins", i, p)
		}
	}

	// An already-cancelled context refuses the Begin outright.
	dead, cancel2 := context.WithCancel(bg)
	cancel2()
	if _, err := db.Begin(dead, WithFootprint(0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("begin under cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestBeginContextGovernsLaterOps: operations run under the merge of the
// Begin context and their own, so a dead Begin context aborts the
// transaction even when the operation passes a fresh context (the
// regression was serve-style callers using context.Background() per op).
func TestBeginContextGovernsLaterOps(t *testing.T) {
	db := open(t, Config{Shards: 2, Verify: true})
	bg := context.Background()

	// Op context is Background: the Begin context alone must kill the op.
	ctx, cancel := context.WithCancel(bg)
	txn, err := db.Begin(ctx, WithFootprint(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Read(bg, 0); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := txn.Write(bg, 0); !errors.Is(err, ErrTxnAborted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("write after begin-ctx cancel = %v, want ErrTxnAborted + Canceled", err)
	}

	// Both contexts cancellable: the merged context must still observe the
	// Begin side.
	bctx, bcancel := context.WithCancel(bg)
	defer bcancel()
	octx, ocancel := context.WithCancel(bg)
	defer ocancel()
	txn2, err := db.Begin(bctx, WithFootprint(1))
	if err != nil {
		t.Fatal(err)
	}
	bcancel()
	if err := txn2.Write(octx, 1); !errors.Is(err, ErrTxnAborted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("write under merged ctx = %v, want ErrTxnAborted + Canceled", err)
	}
}

// TestDeadBeginContextHasOneVoice: whoever notices a dead Begin context
// first — the expiry callback while the session idles, or the next
// operation finding it dead before submitting — the operation's error is
// the session's Err, and its text is the same either way. (The engine used
// to answer for the second case in its own words, so a wire transcript
// depended on which side won the race.)
func TestDeadBeginContextHasOneVoice(t *testing.T) {
	bg := context.Background()
	run := func(idle bool, op func(*Txn) error) string {
		db := open(t, Config{Shards: 1})
		ctx, cancel := context.WithCancel(bg)
		defer cancel()
		txn, err := db.Begin(ctx, WithID(7), WithFootprint(0))
		if err != nil {
			t.Fatal(err)
		}
		cancel()
		for deadline := time.Now().Add(5 * time.Second); idle && txn.Err() == nil; {
			if time.Now().After(deadline) {
				t.Fatal("the expiry callback never aborted the cancelled session")
			}
			time.Sleep(time.Millisecond)
		}
		opErr := op(txn)
		if !errors.Is(opErr, ErrTxnAborted) || !errors.Is(opErr, context.Canceled) {
			t.Fatalf("op after begin-ctx cancel = %v, want ErrTxnAborted + Canceled", opErr)
		}
		if txn.Err() == nil || opErr.Error() != txn.Err().Error() {
			t.Fatalf("op error %q, session error %q: want the same text", opErr, txn.Err())
		}
		if s := db.Stats(); s.Aborted != 1 {
			t.Fatalf("Aborted = %d, want 1", s.Aborted)
		}
		return opErr.Error()
	}
	octx, ocancel := context.WithCancel(bg) // a live op context: the merged path
	defer ocancel()
	for name, op := range map[string]func(*Txn) error{
		"read":         func(txn *Txn) error { return txn.Read(bg, 0) },
		"write":        func(txn *Txn) error { return txn.Write(bg, 0) },
		"write-merged": func(txn *Txn) error { return txn.Write(octx, 0) },
	} {
		if idle, busy := run(true, op), run(false, op); idle != busy {
			t.Errorf("%s: callback first says %q, operation first says %q", name, idle, busy)
		}
	}
}

// TestDriveWorkload ports the workload driver onto the client: concurrent
// generators pumped eight steps per DB.SubmitBatch into a verify-enabled
// DB, checked by the offline CSR referee at Close.
func TestDriveWorkload(t *testing.T) {
	db := open(t, Config{
		Shards: 4,
		Policy: "greedy-c1",
		Verify: true,
	})
	const drivers = 4
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			gen := workload.New(workload.Config{
				Entities:         64,
				Txns:             150,
				MaxActive:        4,
				Shards:           4,
				CrossFrac:        0.1,
				DeclareFootprint: true,
				BaseTxnID:        model.TxnID(1_000_000 * (d + 1)),
				RestartAborted:   true,
				Seed:             int64(300 + d),
			})
			steps := make([]Step, 0, 8)
			for {
				steps = steps[:0]
				for len(steps) < cap(steps) {
					st, ok := gen.Next()
					if !ok {
						break
					}
					steps = append(steps, st)
				}
				if len(steps) == 0 {
					return
				}
				for i, r := range db.SubmitBatch(steps) {
					if !r.Accepted() {
						gen.NotifyAbort(steps[i].Txn)
					}
				}
			}
		}(d)
	}
	wg.Wait()
	s := db.Stats()
	if s.Completed == 0 || s.Deleted == 0 || s.CrossTxns == 0 {
		t.Fatalf("driven run did no representative work: %+v", s)
	}
	// Close (deferred by open) runs the CSR referee.
}

// TestRawBatchPath checks the raw step API under the session facade.
func TestRawBatchPath(t *testing.T) {
	db := open(t, Config{Shards: 2, Verify: true})
	results := db.SubmitBatch([]Step{
		model.BeginDeclared(1, 0),
		model.Read(1, 0),
		model.WriteFinal(1, 0),
		model.Read(99, 0),
	})
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results[:3] {
		if !r.Accepted() {
			t.Fatalf("step %d: %v (%v)", i, r.Outcome(), r.Err)
		}
	}
	if results[2].CompletedTxn != 1 {
		t.Fatalf("CompletedTxn = %v, want 1", results[2].CompletedTxn)
	}
	if !errors.Is(results[3].Err, ErrTxnAborted) {
		t.Fatalf("unknown txn err = %v, want ErrTxnAborted", results[3].Err)
	}
	if db.Abort(2) {
		t.Fatal("raw Abort of an unknown ID returned true")
	}
}

// TestSubmitBatchRefusesDecisions: the raw path admits no two-phase-commit
// decision. A KindCommit or KindAbort answers ErrProtocol, and the local
// and cross transactions it names run on to their completions.
func TestSubmitBatchRefusesDecisions(t *testing.T) {
	db := open(t, Config{Shards: 2, Verify: true})
	results := db.SubmitBatch([]Step{
		model.BeginDeclared(1, 0),
		model.BeginDeclared(2, 0, 1),
		{Kind: model.KindCommit, Txn: 1},
		{Kind: model.KindAbort, Txn: 1},
		{Kind: model.KindCommit, Txn: 2},
		{Kind: model.KindAbort, Txn: 2},
		model.WriteFinal(1, 0),
		model.WriteFinal(2, 0, 1),
	})
	for i, res := range results[2:6] {
		if !errors.Is(res.Err, ErrProtocol) || res.Aborted != NoTxn || res.CompletedTxn != NoTxn {
			t.Fatalf("decision %d: aborted=%v completed=%v err=%v, want ErrProtocol", i, res.Aborted, res.CompletedTxn, res.Err)
		}
	}
	for i, res := range results[6:] {
		if !res.Accepted() || res.CompletedTxn != TxnID(i+1) {
			t.Fatalf("T%d's final write: %v err=%v, want its completion", i+1, res.Outcome(), res.Err)
		}
	}
	if s := db.Stats(); s.Aborted != 0 || s.Completed != 2 {
		t.Fatalf("stats: %d aborted, %d completed; want 0 and 2", s.Aborted, s.Completed)
	}
}

// TestBatchStepBehindOwnAbort: a step pipelined in the same batch behind
// its own transaction's rejected step answers like the per-step path —
// ErrTxnAborted, never ErrProtocol — so a batch client's abort handling
// sees one dead transaction, not a protocol failure.
func TestBatchStepBehindOwnAbort(t *testing.T) {
	db := open(t, Config{Shards: 1, Verify: true})
	results := db.SubmitBatch([]Step{
		model.BeginDeclared(1, 0),
		model.BeginDeclared(2, 0),
		model.Read(1, 0),
		model.WriteFinal(2, 0, 4),
		model.Read(1, 4), // closes the cycle: T1 aborts
		model.WriteFinal(1, 8),
	})
	if !errors.Is(results[4].Err, ErrCycle) {
		t.Fatalf("cycle-closing read err = %v, want ErrCycle", results[4].Err)
	}
	last := results[5]
	if !errors.Is(last.Err, ErrTxnAborted) || errors.Is(last.Err, ErrProtocol) || last.Accepted() || last.Aborted != 1 {
		t.Fatalf("step behind its own abort: %v aborted=%v err=%v, want rejected with ErrTxnAborted", last.Outcome(), last.Aborted, last.Err)
	}
	if s := db.Stats(); s.Aborted != 1 || s.Completed != 1 {
		t.Fatalf("stats: %d aborted, %d completed; want 1 and 1", s.Aborted, s.Completed)
	}
}

// TestDurableRoundTrip: sessions against a DataDir-backed DB survive a
// close/reopen — the retained transaction refuses a duplicate Begin, the
// orphaned session is aborted, and the recovery report says so.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	db, err := Open(Config{Shards: 2, Policy: "greedy-c1", DataDir: dir, FsyncBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep := db.Recovery(); rep == nil || rep.RecordsReplayed != 0 {
		t.Fatalf("fresh-dir recovery report = %+v", rep)
	}
	txn, err := db.Begin(ctx, WithID(1), WithFootprint(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Write(ctx, 0, 1); err != nil {
		t.Fatalf("cross commit: %v", err)
	}
	// An orphan: begun, never decided, its session dies with the process.
	if _, err := db.Begin(ctx, WithID(2), WithFootprint(0)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := open(t, Config{Shards: 2, Policy: "greedy-c1", DataDir: dir})
	rep := db2.Recovery()
	if rep.OrphansAborted != 1 {
		t.Fatalf("OrphansAborted = %d, want 1 (report %+v)", rep.OrphansAborted, rep)
	}
	// T1 committed before the crash: still retained, duplicate Begin fails.
	if _, err := db2.Begin(ctx, WithID(1), WithFootprint(0)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("duplicate Begin of retained txn = %v, want ErrProtocol", err)
	}
	// T2 was orphan-aborted: its ID begins fresh and can commit.
	txn2, err := db2.Begin(ctx, WithID(2), WithFootprint(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := txn2.Write(ctx, 0); err != nil {
		t.Fatalf("commit after recovery: %v", err)
	}
}

// TestReopenedSessionsDoNotReuseIDs: sessions on a reopened durable store
// count on from the highest ID the recovered state names. Under the
// default nogc policy the committed transactions are still retained, so a
// counter restarted at 1 would collide with the first of them.
func TestReopenedSessionsDoNotReuseIDs(t *testing.T) {
	ctx := context.Background()
	mem := store.NewMem(2)
	db, err := Open(Config{Shards: 2, Store: mem})
	if err != nil {
		t.Fatal(err)
	}
	var last TxnID
	for _, fp := range [][]Entity{{0}, {0, 1}} {
		txn, err := db.Begin(ctx, WithFootprint(fp...))
		if err != nil {
			t.Fatal(err)
		}
		if err := txn.Write(ctx, fp...); err != nil {
			t.Fatalf("T%d: %v", txn.ID(), err)
		}
		last = txn.ID()
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := open(t, Config{Shards: 2, Store: mem})
	if got := db2.Recovery().MaxTxnID; got != last {
		t.Fatalf("MaxTxnID = %d, want %d", got, last)
	}
	txn, err := db2.Begin(ctx, WithFootprint(0))
	if err != nil {
		t.Fatalf("first Begin after the reopen: %v", err)
	}
	if txn.ID() <= last {
		t.Fatalf("reopened session began T%d, want an ID above T%d", txn.ID(), last)
	}
	if err := txn.Write(ctx, 0); err != nil {
		t.Fatalf("commit after the reopen: %v", err)
	}
}

// TestDataDirStoreExclusive: the two durability knobs cannot be combined,
// and a caller-supplied Store works without a DataDir.
func TestDataDirStoreExclusive(t *testing.T) {
	if _, err := Open(Config{Shards: 1, DataDir: t.TempDir(), Store: store.NewMem(1)}); !errors.Is(err, ErrProtocol) {
		t.Fatalf("DataDir+Store = %v, want ErrProtocol", err)
	}
	mem := store.NewMem(2)
	db := open(t, Config{Shards: 2, Policy: "greedy-c1", Store: mem})
	ctx := context.Background()
	txn, err := db.Begin(ctx, WithFootprint(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Write(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if mem.Shard(0).Stats().Records == 0 {
		t.Fatal("caller-supplied store saw no journal records")
	}
}
