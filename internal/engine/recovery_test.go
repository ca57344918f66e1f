package engine

import (
	"errors"
	"slices"
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
		mustAccept(t, submit(eng, model.BeginDeclared(id, x)))
		mustAccept(t, submit(eng, model.Read(id, x)))
		mustAccept(t, submit(eng, model.WriteFinal(id, x)))
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
		res := submit(eng2, model.Begin(id))
		if res.Outcome() == OutcomeError {
			retained++
		} else if res.Accepted() {
			// An undeclared BEGIN routes by ID hash; stay in that partition.
			mustAccept(t, submit(eng2, model.WriteFinal(id, model.Entity(id%2))))
		}
	}
	if retained != rep2.TxnsRetained {
		t.Fatalf("duplicate-BEGIN probe found %d retained, report says %d", retained, rep2.TxnsRetained)
	}
	for i := 0; i < 8; i++ {
		id := model.TxnID(100 + i)
		x := model.Entity(i % 2)
		mustAccept(t, submit(eng2, model.BeginDeclared(id, x)))
		mustAccept(t, submit(eng2, model.Read(id, x)))
		mustAccept(t, submit(eng2, model.WriteFinal(id, x)))
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
	mustAccept(t, submit(eng, model.Begin(7)))
	mustAccept(t, submit(eng, model.Read(7, 3)))
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
	mustAccept(t, submit(eng2, model.Begin(7)))
	mustAccept(t, submit(eng2, model.WriteFinal(7, 3)))

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
	mustAccept(t, submit(eng, model.BeginDeclared(50, 4)))
	mustAccept(t, submit(eng, model.WriteFinal(50, 4)))

	mustAccept(t, submit(eng, model.BeginDeclared(9, 0, 1)))
	mustAccept(t, submit(eng, model.Read(9, 0)))
	mustAccept(t, submit(eng, model.Read(9, 1)))

	prepared := make(chan struct{})
	release := make(chan struct{})
	testHookPrepared = func(model.TxnID) {
		close(prepared)
		<-release
	}
	defer func() { testHookPrepared = nil }()
	done := make(chan Result, 1)
	go func() { done <- submit(eng, model.WriteFinal(9, 0, 1)) }()
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
	for i, n := range eng.Gauges().Prepared {
		if n != 0 {
			t.Fatalf("shard %d still pins %d prepared subs", i, n)
		}
	}
	// The pins are really released: a fresh transaction writes the same
	// entities and commits, and the dead ID begins fresh.
	mustAccept(t, submit(eng, model.BeginDeclared(60, 0, 1)))
	if res := submit(eng, model.WriteFinal(60, 0, 1)); !res.Accepted() {
		t.Fatalf("write over released pins: %+v", res)
	}
	mustAccept(t, submit(eng, model.BeginDeclared(9, 0)))
	mustAccept(t, submit(eng, model.WriteFinal(9, 0)))
}

// TestRefusedVoteJournal: the participant that votes NO journals the abort
// of its sub-node and never a RecPrepare; its YES sibling journals the
// sub-begin, the vote and then the ABORT decision. The reopened engine
// finds nothing of the transaction left to resolve.
func TestRefusedVoteJournal(t *testing.T) {
	st := store.NewMem(2)
	eng := New(Config{Shards: 2, Store: st})
	// Cross T10 reads e0 on shard 0; local U20 reads e2 and overwrites e0
	// (T10→U20); T10's write of e2 closes U20→T10 there, so shard 0 votes
	// NO, while shard 1 votes YES on e1.
	mustAccept(t, submit(eng, model.BeginDeclared(10, 0, 2, 1)))
	mustAccept(t, submit(eng, model.BeginDeclared(20, 0, 2)))
	mustAccept(t, submit(eng, model.Read(20, 2)))
	mustAccept(t, submit(eng, model.Read(10, 0)))
	mustAccept(t, submit(eng, model.WriteFinal(20, 0)))
	if res := submit(eng, model.WriteFinal(10, 2, 1)); !errors.Is(res.Err, ErrCycle) || res.Aborted != 10 {
		t.Fatalf("refused write: %+v, want a cycle aborting T10", res)
	}
	eng.Close()
	want := [][]store.RecKind{
		{store.RecBeginSub, store.RecRead, store.RecAbort},
		{store.RecBeginSub, store.RecPrepare, store.RecAbort},
	}
	for i := range want {
		state, err := st.Shard(i).Load()
		if err != nil {
			t.Fatal(err)
		}
		var got []store.RecKind
		for _, r := range state.Tail {
			if r.Txn == 10 {
				got = append(got, r.Kind)
			}
		}
		if !slices.Equal(got, want[i]) {
			t.Fatalf("shard %d journaled %v for T10, want %v", i, got, want[i])
		}
	}
	eng, rep, err := Open(Config{Shards: 2, Store: st})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer eng.Close()
	if rep.CrossAborted != 0 || rep.CrossCommitted != 0 {
		t.Fatalf("report = %+v, want no cross transaction to resolve", rep)
	}
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
	for i, n := range eng.Gauges().Prepared {
		if n != 0 {
			t.Fatalf("shard %d still pins %d after finished commit", i, n)
		}
	}
	// Committed on both shards now: duplicate BEGIN errors everywhere.
	if res := submit(eng, model.BeginDeclared(9, 1)); res.Outcome() != OutcomeError {
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

// TestRecoverWriteKindMismatchFails: a sub-transaction's final write
// re-applies prepared and a local one completed, so a RecWrite for a
// sub-begun transaction, or a RecPrepare for a local one, is a log that
// does not describe the history: Open fails with ErrCorruptWAL.
func TestRecoverWriteKindMismatchFails(t *testing.T) {
	for _, begin := range []store.RecKind{store.RecBeginSub, store.RecBegin} {
		write := store.RecWrite
		if begin == store.RecBegin {
			write = store.RecPrepare
		}
		st := store.NewMem(2)
		for _, r := range []store.Record{
			{Kind: begin, Txn: 1, Entities: []model.Entity{0, 1}},
			{Kind: write, Txn: 1, Entities: []model.Entity{0}},
		} {
			if err := st.Shard(0).Append(&r); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Shard(0).Sync(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(Config{Shards: 2, Store: st}); !errors.Is(err, store.ErrCorruptWAL) {
			t.Fatalf("%v then %v: Open = %v, want ErrCorruptWAL", begin, write, err)
		}
	}
}

// pinTail keeps every shard's WAL tail unfolded: one straggler per shard
// reads twenty entities that twenty writers then overwrite, so every writer
// stays retained and the snapshot stays larger than what the test journals
// next. The returned check fails the test if a shard checkpointed anyway.
func pinTail(t *testing.T, eng *Engine, st *store.Mem, shards int) func() {
	t.Helper()
	for p := 0; p < shards; p++ {
		mustAccept(t, submit(eng, model.BeginDeclared(model.TxnID(1000+p), model.Entity(p))))
	}
	for x := model.Entity(1); x <= 40; x++ {
		s, w := 1000+model.TxnID(int(x)%shards), 100+model.TxnID(x)
		mustAccept(t, submit(eng, model.Read(s, x)))
		mustAccept(t, submit(eng, model.BeginDeclared(w, x)))
		mustAccept(t, submit(eng, model.WriteFinal(w, x)))
	}
	ckpts := make([]uint64, shards)
	for p := range ckpts {
		ckpts[p] = st.Shard(p).Stats().CheckpointSeq
	}
	return func() {
		t.Helper()
		for p := range ckpts {
			if st.Shard(p).Stats().CheckpointSeq != ckpts[p] {
				t.Fatalf("shard %d checkpointed: the test needs its whole tail", p)
			}
		}
	}
}

// TestRecoverReusedIDAfterDeletion: T1 completes and is deleted, then a new
// local T1 begins and completes, and both incarnations stay in the WAL
// tail. T3 overwrites what the first T1 wrote, so no policy keeps it as a
// current writer. Replay, which never sweeps, still holds the first T1
// completed when the second one's BEGIN comes, and Open must succeed under
// every policy that deletes. On one shard the first T1 is local; on two its
// footprint spans both, and the second begins once the registry retired
// the first. The seeded referee names a transaction by its ID alone, so it
// would merge the first T1's sub-node left on shard 1 with the second T1
// on shard 0; the recovered trace is checked on one shard only.
func TestRecoverReusedIDAfterDeletion(t *testing.T) {
	for _, name := range []string{"lemma1", "greedy-c1", "greedy-c1-newest", "noncurrent-safe", "max-safe"} {
		policy, _ := core.PolicyByName(name)
		for _, shards := range []int{1, 2} {
			st := store.NewMem(shards)
			eng, _, err := Open(Config{Shards: shards, Policy: policy, Store: st})
			if err != nil {
				t.Fatalf("%s, %d shards: open: %v", name, shards, err)
			}
			pinned := pinTail(t, eng, st, shards)
			mustAccept(t, submit(eng, model.BeginDeclared(1, 76, 77)))
			mustAccept(t, submit(eng, model.WriteFinal(1, 76, 77)))
			mustAccept(t, submit(eng, model.BeginDeclared(3, 76, 77)))
			mustAccept(t, submit(eng, model.WriteFinal(3, 76, 77)))
			mustAccept(t, submit(eng, model.BeginDeclared(1, 76)))
			mustAccept(t, submit(eng, model.WriteFinal(1, 76)))
			pinned()
			eng.Close()

			var log *trace.SafeLog
			if shards == 1 {
				log = trace.NewSafeLog()
			}
			eng2, rep, err := Open(Config{Shards: shards, Policy: policy, Store: st, Log: log})
			if err != nil {
				t.Fatalf("%s, %d shards: reopen: %v", name, shards, err)
			}
			if rep.OrphansAborted != shards || rep.CrossAborted != 0 {
				t.Fatalf("%s, %d shards: report = %+v, want the stragglers aborted and nothing else", name, shards, rep)
			}
			mustAccept(t, submit(eng2, model.BeginDeclared(2, 76, 77)))
			mustAccept(t, submit(eng2, model.Read(2, 76)))
			mustAccept(t, submit(eng2, model.WriteFinal(2, 77)))
			eng2.Close()
			if log == nil {
				continue
			}
			if err := log.CheckAcceptedCSR(); err != nil {
				t.Fatalf("%s, %d shards: recovered + fresh trace not CSR: %v", name, shards, err)
			}
		}
	}
}

// TestRecoverReusedCrossIDNeverCommits: cross T9 commits and is deleted,
// then a new T9 on the same participants prepares on both and the engine
// crashes before the decision, with both incarnations in every tail. The
// first T9's RecCommit names the same ID, but it is no decision for the
// second, which presumed abort must abort: Open either refuses the tail as
// corrupt, as it does while commit evidence is keyed by TxnID alone, or
// aborts T9 everywhere. It must never commit it.
func TestRecoverReusedCrossIDNeverCommits(t *testing.T) {
	st := store.NewMem(2)
	eng, _, err := Open(Config{Shards: 2, Policy: greedyPolicy, Store: st})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	pinned := pinTail(t, eng, st, 2)
	mustAccept(t, submit(eng, model.BeginDeclared(9, 76, 77)))
	mustAccept(t, submit(eng, model.WriteFinal(9, 76, 77)))
	mustAccept(t, submit(eng, model.BeginDeclared(9, 76, 77)))
	prepared := make(chan struct{})
	release := make(chan struct{})
	testHookPrepared = func(model.TxnID) {
		close(prepared)
		<-release
	}
	defer func() { testHookPrepared = nil }()
	done := make(chan Result, 1)
	go func() { done <- submit(eng, model.WriteFinal(9, 76, 77)) }()
	<-prepared
	pinned()
	eng.Close()
	close(release)
	if res := <-done; res.Accepted() {
		t.Fatalf("final write committed across the crash: %+v", res)
	}

	eng2, rep, err := Open(Config{Shards: 2, Policy: greedyPolicy, Store: st})
	if errors.Is(err, store.ErrCorruptWAL) {
		return
	}
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer eng2.Close()
	if rep.CrossCommitted != 0 || rep.CrossAborted != 1 {
		t.Fatalf("report = %+v, want the second T9 aborted, nothing committed", rep)
	}
	for i, sh := range eng2.shards {
		if sh.sched.Txn(9) != nil {
			t.Fatalf("shard %d still holds T9", i)
		}
	}
}

// TestRecoverDuplicateActiveBeginFails is the control for the reuse above:
// a BEGIN for an ID the replay holds active describes no history the
// engine could have accepted, so Open fails with ErrCorruptWAL.
func TestRecoverDuplicateActiveBeginFails(t *testing.T) {
	st := store.NewMem(1)
	for range 2 {
		r := store.Record{Kind: store.RecBegin, Txn: 1, Entities: []model.Entity{0}}
		if err := st.Shard(0).Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Shard(0).Sync(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Config{Shards: 1, Store: st}); !errors.Is(err, store.ErrCorruptWAL) {
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
	mustAccept(t, submit(eng, model.BeginDeclared(1, 0)))
	for id := model.TxnID(10); id < 14; id++ {
		x := model.Entity(id)
		mustAccept(t, submit(eng, model.Read(1, x)))
		mustAccept(t, submit(eng, model.BeginDeclared(id, x)))
		mustAccept(t, submit(eng, model.WriteFinal(id, x)))
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
		if res := submit(eng2, model.BeginDeclared(id, model.Entity(id))); res.Outcome() != OutcomeError {
			t.Fatalf("BEGIN reusing committed T%d after recovery: %v (%v), want a duplicate refusal", id, res.Outcome(), res.Err)
		}
	}
}

// TestRecoverRetiresCrossSubNodes: cross T1 commits on shards {0,1} behind
// straggler S on shard 1, so the registry still tracks it, and local L on
// shard 0 completes carrying T1's label; cross T2 then commits behind S too,
// after shard 1's last checkpoint, so replay commits it again and files it
// on S. Then the process dies. The reopened registry tracks nothing, and
// recovery aborts S as an orphan, so nothing pins T1, T2 or L any more: the
// first sweep on each shard must delete them, as it would delete any other
// completed transaction without an active ancestor. Recovery's abort of S
// finds T2 clean under the replay tracker; the live tracker retires T2, and
// that report must go with it, never reaching the registry, where a new
// cross T2 that commits behind another straggler must wait for that
// straggler like any other.
func TestRecoverRetiresCrossSubNodes(t *testing.T) {
	st := store.NewMem(2)
	eng, _, err := Open(Config{Shards: 2, Policy: greedyPolicy, Store: st})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	mustAccept(t, submit(eng, model.BeginDeclared(9, 1))) // S, shard 1
	mustAccept(t, submit(eng, model.Read(9, 1)))
	for x := model.Entity(101); x < 117; x += 2 {
		// Reads that only make shard 1's checkpoint outweigh T2's records.
		mustAccept(t, submit(eng, model.Read(9, x)))
	}
	mustAccept(t, submit(eng, model.BeginDeclared(1, 0, 1)))
	mustAccept(t, submit(eng, model.WriteFinal(1, 0, 1)))
	mustAccept(t, submit(eng, model.BeginDeclared(7, 0, 2))) // L, shard 0
	mustAccept(t, submit(eng, model.Read(7, 0)))
	mustAccept(t, submit(eng, model.WriteFinal(7, 2)))
	if n := eng.Gauges().Retained; n[0] != 2 || n[1] != 1 {
		t.Fatalf("retained %v before the crash, want T1 and L on shard 0, T1 on shard 1", n)
	}
	ckpt := st.Shard(1).Stats().CheckpointSeq
	mustAccept(t, submit(eng, model.BeginDeclared(2, 0, 1)))
	mustAccept(t, submit(eng, model.WriteFinal(2, 0, 1)))
	if st.Shard(1).Stats().CheckpointSeq != ckpt {
		t.Fatal("shard 1 checkpointed T2's commit; replay would not commit it again")
	}
	// The crash: eng is dropped without Close; the store keeps what its
	// shards appended.

	eng2, rep, err := Open(Config{Shards: 2, Policy: greedyPolicy, Store: st})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer eng2.Close()
	if rep.OrphansAborted != 1 {
		t.Fatalf("OrphansAborted = %d, want 1 (S)", rep.OrphansAborted)
	}
	// No shard has run yet: what recovery left to hand over is still there.
	for _, sh := range eng2.shards {
		if ids := sh.sched.TakeClean(nil); len(ids) != 0 {
			t.Fatalf("shard %d would report %v clean to a registry that never tracked them", sh.idx, ids)
		}
	}
	// One completion per shard sweeps it.
	for id, x := range map[model.TxnID]model.Entity{20: 4, 21: 5} {
		mustAccept(t, submit(eng2, model.BeginDeclared(id, x)))
		mustAccept(t, submit(eng2, model.WriteFinal(id, x)))
	}
	// T2 again, behind a new straggler on shard 1.
	mustAccept(t, submit(eng2, model.BeginDeclared(30, 3)))
	mustAccept(t, submit(eng2, model.Read(30, 3)))
	mustAccept(t, submit(eng2, model.BeginDeclared(2, 0, 3)))
	mustAccept(t, submit(eng2, model.WriteFinal(2, 0, 3)))
	eng2.Stats()
	reg := eng2.registry
	reg.mu.Lock()
	e := reg.txns[2]
	dirty := e != nil && !e.clean[slices.Index(e.parts, 1)]
	reg.mu.Unlock()
	if !dirty {
		t.Fatal("the new T2 is not waiting for shard 1, where the straggler still reaches it")
	}
	mustAccept(t, submit(eng2, model.WriteFinal(30, 7)))
	if left := registryResidue(eng2); left != 0 {
		t.Fatalf("registry still tracks %d transactions after the straggler ended", left)
	}
	eng2.Close()
	for _, sh := range eng2.shards {
		if ids := completedIDs(sh.sched); len(ids) != 0 {
			t.Fatalf("shard %d retains %v after its sweep, with nothing tracked or active", sh.idx, ids)
		}
	}
}
