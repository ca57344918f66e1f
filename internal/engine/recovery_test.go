package engine

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/store"
	"repro/internal/trace"
)

// greedyPolicy is the deletion policy the recovery tests sweep with.
func greedyPolicy() core.Policy { return core.GreedyC1{} }

// TestRecoverRoundTrip closes an engine gracefully and reopens it from the
// same store: retained state survives, the checkpoint advanced past the
// sweeps, and the seeded referee accepts the recovered history plus fresh
// post-restart traffic.
func TestRecoverRoundTrip(t *testing.T) {
	st := store.NewMem(2)
	eng, rep, err := Open(Config{
		Shards: 2, Policy: greedyPolicy, Store: st,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if rep == nil || rep.Shards != 2 || rep.RecordsReplayed != 0 {
		t.Fatalf("fresh-store report = %+v", rep)
	}
	// Eight local transactions per shard (entity parity selects the shard).
	for i := 0; i < 16; i++ {
		id := model.TxnID(i + 1)
		x := model.Entity(i%2 + 2*(i/2)) // shard i%2
		mustAccept(t, eng.Submit(model.BeginDeclared(id, x)))
		mustAccept(t, eng.Submit(model.Read(id, x)))
		mustAccept(t, eng.Submit(model.WriteFinal(id, x)))
	}
	pre := eng.Stats()
	eng.Close()

	log := trace.NewSafeLog()
	eng2, rep2, err := Open(Config{
		Shards: 2, Policy: greedyPolicy, Store: st, Log: log,
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer eng2.Close()
	if rep2.OrphansAborted != 0 || rep2.CrossAborted != 0 {
		t.Fatalf("clean shutdown recovered with resolutions: %+v", rep2)
	}
	if pre.Deleted > 0 {
		ck := false
		for _, seq := range rep2.CheckpointSeqs {
			if seq > 0 {
				ck = true
			}
		}
		if !ck {
			t.Fatalf("sweeps ran pre-crash (deleted=%d) but no checkpoint advanced: %v",
				pre.Deleted, rep2.CheckpointSeqs)
		}
	}
	// Retained completed transactions are really back: a retained ID must
	// refuse a duplicate BEGIN, and fresh traffic over the same entities
	// must still serialize with the recovered history.
	retained := 0
	for i := 0; i < 16; i++ {
		id := model.TxnID(i + 1)
		res := eng2.Submit(model.Begin(id))
		if res.Outcome() == OutcomeError {
			retained++
		} else if res.Accepted() {
			// An undeclared BEGIN routes by ID hash; stay in that partition.
			mustAccept(t, eng2.Submit(model.WriteFinal(id, model.Entity(id%2))))
		}
	}
	if retained != rep2.TxnsRetained {
		t.Fatalf("duplicate-BEGIN probe found %d retained, report says %d", retained, rep2.TxnsRetained)
	}
	for i := 0; i < 8; i++ {
		id := model.TxnID(100 + i)
		x := model.Entity(i % 2)
		mustAccept(t, eng2.Submit(model.BeginDeclared(id, x)))
		mustAccept(t, eng2.Submit(model.Read(id, x)))
		mustAccept(t, eng2.Submit(model.WriteFinal(id, x)))
	}
	if err := log.CheckAcceptedCSR(); err != nil {
		t.Fatalf("recovered + fresh trace not CSR: %v", err)
	}
}

// TestRecoverOrphanAbort: a local transaction active at the crash has no
// surviving session; recovery aborts it and frees its ID.
func TestRecoverOrphanAbort(t *testing.T) {
	st := store.NewMem(1)
	eng := New(Config{Shards: 1, Store: st})
	mustAccept(t, eng.Submit(model.Begin(7)))
	mustAccept(t, eng.Submit(model.Read(7, 3)))
	eng.Close()

	eng2, rep, err := Open(Config{Shards: 1, Store: st})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer eng2.Close()
	if rep.OrphansAborted != 1 {
		t.Fatalf("OrphansAborted = %d, want 1", rep.OrphansAborted)
	}
	// The orphan is gone: its ID begins fresh.
	mustAccept(t, eng2.Submit(model.Begin(7)))
	mustAccept(t, eng2.Submit(model.WriteFinal(7, 3)))

	// And the abort is durable: a second restart resolves nothing.
	eng2.Close()
	eng3, rep3, err := Open(Config{Shards: 1, Store: st})
	if err != nil {
		t.Fatalf("re-reopen: %v", err)
	}
	defer eng3.Close()
	if rep3.OrphansAborted != 0 {
		t.Fatalf("second recovery re-aborted the orphan: %+v", rep3)
	}
}

// TestRecoverStoreShardMismatch: the store's shard count must match the
// engine's.
func TestRecoverStoreShardMismatch(t *testing.T) {
	if _, _, err := Open(Config{Shards: 2, Store: store.NewMem(3)}); err == nil {
		t.Fatal("Open accepted a 3-shard store for a 2-shard engine")
	}
}

// crash2PC drives a cross-partition transaction to the all-prepared window
// (every participant voted YES, votes synced, no decision) and "crashes":
// the engine closes while the decision is parked, so the store holds
// durable PREPAREs and nothing else — exactly what a coordinator crash
// between phases leaves behind. It returns the store and the bystander
// transaction ID that was live on shard 0 at the crash.
func crash2PC(t *testing.T) *store.Mem {
	t.Helper()
	st := store.NewMem(2)
	eng := New(Config{Shards: 2, Store: st})
	// A bystander completes before the crash; it must survive recovery.
	mustAccept(t, eng.Submit(model.BeginDeclared(50, 4)))
	mustAccept(t, eng.Submit(model.WriteFinal(50, 4)))

	mustAccept(t, eng.Submit(model.BeginDeclared(9, 0, 1)))
	mustAccept(t, eng.Submit(model.Read(9, 0)))
	mustAccept(t, eng.Submit(model.Read(9, 1)))

	prepared := make(chan struct{})
	release := make(chan struct{})
	testHookPrepared = func(model.TxnID) {
		close(prepared)
		<-release
	}
	defer func() { testHookPrepared = nil }()
	done := make(chan Result, 1)
	go func() { done <- eng.Submit(model.WriteFinal(9, 0, 1)) }()
	<-prepared
	// Both YES votes are durable; the decision is parked in the hook. Close
	// the shards (the crash), then let the driver run into the wall.
	eng.Close()
	close(release)
	res := <-done
	if res.Accepted() {
		t.Fatalf("final write committed across the crash: %+v", res)
	}
	return st
}

// TestRecoverPrepared2PCPresumedAbort: by default a fully-prepared cross
// transaction with no durable decision is presumed aborted — the engine was
// its own coordinator and the coordinator died undecided.
func TestRecoverPrepared2PCPresumedAbort(t *testing.T) {
	st := crash2PC(t)
	eng, rep, err := Open(Config{Shards: 2, Store: st})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer eng.Close()
	if rep.CrossAborted != 1 {
		t.Fatalf("report = %+v, want CrossAborted=1", rep)
	}
	for i, n := range eng.PreparedCounts() {
		if n != 0 {
			t.Fatalf("shard %d still pins %d prepared subs", i, n)
		}
	}
	// The pins are really released: a fresh transaction writes the same
	// entities and commits, and the dead ID begins fresh.
	mustAccept(t, eng.Submit(model.BeginDeclared(60, 0, 1)))
	if res := eng.Submit(model.WriteFinal(60, 0, 1)); !res.Accepted() {
		t.Fatalf("write over released pins: %+v", res)
	}
	mustAccept(t, eng.Submit(model.BeginDeclared(9, 0)))
	mustAccept(t, eng.Submit(model.WriteFinal(9, 0)))
}

// TestRecoverCommitEvidenceFinishesLaggards: a durable COMMIT on one
// participant commits the transaction everywhere — the decision stands even
// if the other participant crashed before hearing it.
func TestRecoverCommitEvidenceFinishesLaggards(t *testing.T) {
	st := crash2PC(t)
	// Manufacture the laggard: shard 0 heard COMMIT (durably), shard 1 did
	// not. Recovery must finish shard 1's commit, not presume abort.
	sh0 := st.Shard(0)
	if err := sh0.Append(&store.Record{Kind: store.RecCommit, Txn: 9}); err != nil {
		t.Fatalf("append commit evidence: %v", err)
	}
	if err := sh0.Sync(); err != nil {
		t.Fatalf("sync commit evidence: %v", err)
	}
	eng, rep, err := Open(Config{Shards: 2, Store: st})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer eng.Close()
	if rep.CrossCommitted != 1 || rep.CrossAborted != 0 {
		t.Fatalf("report = %+v, want CrossCommitted=1", rep)
	}
	for i, n := range eng.PreparedCounts() {
		if n != 0 {
			t.Fatalf("shard %d still pins %d after finished commit", i, n)
		}
	}
	// Committed on both shards now: duplicate BEGIN errors everywhere.
	if res := eng.Submit(model.BeginDeclared(9, 1)); res.Outcome() != OutcomeError {
		t.Fatalf("committed ID began fresh on shard 1: %+v", res)
	}
}

// TestRecoverCorruptCheckpointFails: a checkpoint that does not decode must
// fail Open with ErrCorruptWAL, not silently start empty.
func TestRecoverCorruptSnapshotFails(t *testing.T) {
	st := store.NewMem(1)
	if err := st.Shard(0).Checkpoint([]byte("not a snapshot")); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	_, _, err := Open(Config{Shards: 1, Store: st})
	if !errors.Is(err, store.ErrCorruptWAL) {
		t.Fatalf("Open = %v, want ErrCorruptWAL", err)
	}
}

func mustAccept(t *testing.T, res Result) {
	t.Helper()
	if !res.Accepted() {
		t.Fatalf("submission refused: %+v err=%v", res, res.Err)
	}
}

// TestRecoveredCommitsStayRetained is the benchmark's durability probe in
// process: an active pin keeps four committed probes retained, and after a
// restart, which aborts the pin as an orphan, a BEGIN reusing each probe's
// ID must still be refused as a duplicate. The shard's first visits after
// recovery must not sweep the probes away before they are asked about.
func TestRecoveredCommitsStayRetained(t *testing.T) {
	st := store.NewMem(1)
	eng, _, err := Open(Config{Shards: 1, Policy: greedyPolicy, Store: st})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	mustAccept(t, eng.Submit(model.BeginDeclared(1, 0)))
	for id := model.TxnID(10); id < 14; id++ {
		x := model.Entity(id)
		mustAccept(t, eng.Submit(model.Read(1, x)))
		mustAccept(t, eng.Submit(model.BeginDeclared(id, x)))
		mustAccept(t, eng.Submit(model.WriteFinal(id, x)))
	}
	eng.Close()

	eng2, rep, err := Open(Config{Shards: 1, Policy: greedyPolicy, Store: st})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer eng2.Close()
	if rep.OrphansAborted != 1 {
		t.Fatalf("OrphansAborted = %d, want 1 (the pin)", rep.OrphansAborted)
	}
	for id := model.TxnID(10); id < 14; id++ {
		if res := eng2.Submit(model.BeginDeclared(id, model.Entity(id))); res.Outcome() != OutcomeError {
			t.Fatalf("BEGIN reusing committed T%d after recovery: %v (%v), want a duplicate refusal", id, res.Outcome(), res.Err)
		}
	}
}
