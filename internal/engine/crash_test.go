// Crash and fault-injection harness for the durability layer: kill the
// process at an arbitrary journaling op (a failpoint that starts failing
// every store operation after a per-round trigger), recover from the
// surviving medium, and verify the recovered engine — the accepted
// subschedule still passes the CSR referee, no prepared 2PC outlives
// recovery undecided, and (in strict mode) no acknowledged write is lost.
// Torn tails, flipped bits, and fsync errors get dedicated arms.
package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/store"
	"repro/internal/trace"
)

// killpoint is the crash seam: after `left` store operations (writes,
// syncs, checkpoint steps — anything the file backend routes through its
// failpoint), every further operation fails, which is how a kill(9) looks
// to code that can no longer reach its disk.
type killpoint struct {
	left atomic.Int64
}

var errInjectedCrash = errors.New("injected crash")

func (k *killpoint) fn(op store.FailOp) error {
	if k.left.Add(-1) < 0 {
		return errInjectedCrash
	}
	return nil
}

// ackTracker records, per entity, the last acknowledged final write and the
// set of writes whose acknowledgement never arrived (in flight, refused, or
// answered with an error at the crash). The strict-mode invariant: the
// recovered last writer of an entity is the acknowledged one unless an
// unresolved write superseded it — an acked write may only be shadowed,
// never lost.
type ackTracker struct {
	acked map[model.Entity]model.TxnID
	maybe map[model.Entity]map[model.TxnID]bool
}

func newAckTracker() *ackTracker {
	return &ackTracker{
		acked: make(map[model.Entity]model.TxnID),
		maybe: make(map[model.Entity]map[model.TxnID]bool),
	}
}

func (tr *ackTracker) note(id model.TxnID, ents []model.Entity, acked bool) {
	for _, e := range ents {
		if acked {
			tr.acked[e] = id
		} else {
			if tr.maybe[e] == nil {
				tr.maybe[e] = make(map[model.TxnID]bool)
			}
			tr.maybe[e][id] = true
		}
	}
}

// driveCrashLoad submits n transactions — 70% partition-local, 30%
// cross-partition — over a private entity range starting at base (entities
// base+p+shards*k live on shard p, so goroutines with distinct bases never
// conflict with each other). Failures are expected once the killpoint
// trips; the driver just keeps going, like a client retrying into a dying
// server.
func driveCrashLoad(eng *Engine, seed int64, base model.Entity, idBase, n int, tr *ackTracker) {
	rng := rand.New(rand.NewSource(seed))
	ns := eng.NumShards()
	ent := func(p int) model.Entity { return base + model.Entity(p+ns*rng.Intn(8)) }
	for i := 0; i < n; i++ {
		id := model.TxnID(idBase + i)
		if rng.Intn(100) < 30 && ns > 1 {
			p1 := rng.Intn(ns)
			p2 := (p1 + 1 + rng.Intn(ns-1)) % ns
			e1, e2 := ent(p1), ent(p2)
			if !submit(eng, model.BeginDeclared(id, e1, e2)).Accepted() {
				continue
			}
			submit(eng, model.Read(id, e1))
			submit(eng, model.Read(id, e2))
			res := submit(eng, model.WriteFinal(id, e1, e2))
			if tr != nil {
				tr.note(id, []model.Entity{e1, e2}, res.Accepted())
			}
		} else {
			p := rng.Intn(ns)
			e1, e2 := ent(p), ent(p)
			if !submit(eng, model.BeginDeclared(id, e1, e2)).Accepted() {
				continue
			}
			submit(eng, model.Read(id, e2))
			res := submit(eng, model.WriteFinal(id, e1))
			if tr != nil {
				tr.note(id, []model.Entity{e1}, res.Accepted())
			}
		}
	}
}

// TestCrashRecoveryLoop is the harness headline: for a spread of
// deterministic kill points, run concurrent mixed local/cross traffic into
// a file-backed engine until the store starts failing every operation,
// then recover from the surviving files and verify the contract — Open
// succeeds, no prepared sub-transaction is left pinned, the seeded trace
// passes the CSR referee, and fresh traffic over the same entities keeps
// it passing.
func TestCrashRecoveryLoop(t *testing.T) {
	rounds := 6
	if testing.Short() {
		rounds = 3
	}
	const shards = 4
	for round := 0; round < rounds; round++ {
		t.Run(fmt.Sprintf("kill=%d", 40+round*173), func(t *testing.T) {
			dir := t.TempDir()
			kp := &killpoint{}
			kp.left.Store(int64(40 + round*173))
			fs, err := store.OpenFile(dir, shards, store.Options{Failpoint: kp.fn})
			if err != nil {
				t.Fatalf("open store: %v", err)
			}
			eng, _, err := Open(Config{
				Shards: shards, Policy: greedyPolicy,
				WALSyncEvery: 4, Store: fs,
			})
			if err != nil {
				t.Fatalf("open engine: %v", err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					driveCrashLoad(eng, int64(round*10+g), model.Entity(g*1024), 100000*(g+1), 150, nil)
				}(g)
			}
			wg.Wait()
			eng.Close()
			fs.Close()

			// The process is dead; reopen from whatever reached the files.
			fs2, err := store.OpenFile(dir, shards, store.Options{})
			if err != nil {
				t.Fatalf("reopen store: %v", err)
			}
			defer fs2.Close()
			log := trace.NewSafeLog()
			eng2, rep, err := Open(Config{
				Shards: shards, Policy: greedyPolicy,
				Store: fs2, Log: log,
			})
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer eng2.Close()
			if rep.Shards != shards {
				t.Fatalf("report shards = %d", rep.Shards)
			}
			for i, n := range eng2.Gauges().Prepared {
				if n != 0 {
					t.Fatalf("shard %d left %d prepared subs undecided after recovery", i, n)
				}
			}
			if err := log.CheckAcceptedCSR(); err != nil {
				t.Fatalf("recovered subschedule not CSR: %v", err)
			}
			for g := 0; g < 3; g++ {
				driveCrashLoad(eng2, int64(7000+round*10+g), model.Entity(g*1024), 500000+100000*(g+1), 60, nil)
			}
			if err := log.CheckAcceptedCSR(); err != nil {
				t.Fatalf("post-recovery traffic broke CSR: %v", err)
			}
		})
	}
}

// TestCrashStrictNoAckedLoss: with WALSyncEvery=1 every acknowledgement
// implies durability. Crash at a spread of points and verify entity-level:
// each entity's recovered last writer is its last acknowledged writer, or a
// write whose acknowledgement was still unresolved at the crash. A missing
// or unknown writer is a lost ack — the strict contract broken.
func TestCrashStrictNoAckedLoss(t *testing.T) {
	const shards = 2
	for round := 0; round < 4; round++ {
		t.Run(fmt.Sprintf("kill=%d", 25+round*97), func(t *testing.T) {
			dir := t.TempDir()
			kp := &killpoint{}
			kp.left.Store(int64(25 + round*97))
			fs, err := store.OpenFile(dir, shards, store.Options{Failpoint: kp.fn})
			if err != nil {
				t.Fatalf("open store: %v", err)
			}
			eng, _, err := Open(Config{
				Shards: shards, Policy: greedyPolicy,
				WALSyncEvery: 1, Store: fs,
			})
			if err != nil {
				t.Fatalf("open engine: %v", err)
			}
			tr := newAckTracker()
			driveCrashLoad(eng, int64(round), 0, 1000, 200, tr)
			eng.Close()
			fs.Close()

			fs2, err := store.OpenFile(dir, shards, store.Options{})
			if err != nil {
				t.Fatalf("reopen store: %v", err)
			}
			defer fs2.Close()
			eng2, _, err := Open(Config{Shards: shards, Policy: greedyPolicy, Store: fs2})
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			// Close first: every shard shuts down and no later run applies
			// anything, making the schedulers safe to inspect directly.
			eng2.Close()
			recovered := make(map[model.Entity]model.TxnID)
			for _, sh := range eng2.shards {
				for _, w := range sh.sched.ExportState().Writes {
					recovered[w.Entity] = w.Writer
				}
			}
			for e, want := range tr.acked {
				got, ok := recovered[e]
				if !ok {
					t.Fatalf("entity %d: acked write by T%d lost entirely", e, want)
				}
				if got != want && !tr.maybe[e][got] {
					t.Fatalf("entity %d: recovered writer T%d is neither the acked T%d nor an unresolved write", e, got, want)
				}
			}
		})
	}
}

// TestCrashTornTail: a crash mid-write leaves a partial frame at the end of
// the WAL. Load must repair it (the frame was never synced, so nothing
// acknowledged is in it) and recovery proceeds.
func TestCrashTornTail(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	fs, err := store.OpenFile(dir, shards, store.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	eng := New(Config{Shards: shards, Store: fs})
	driveCrashLoad(eng, 1, 0, 1000, 40, nil)
	eng.Close()
	fs.Close()

	// A torn frame: a length header promising more bytes than follow.
	f, err := os.OpenFile(filepath.Join(dir, "shard-0.wal"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	if _, err := f.Write([]byte{0x40, 0, 0, 0, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatalf("tear wal: %v", err)
	}
	f.Close()

	fs2, err := store.OpenFile(dir, shards, store.Options{})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer fs2.Close()
	log := trace.NewSafeLog()
	eng2, _, err := Open(Config{Shards: shards, Store: fs2, Log: log})
	if err != nil {
		t.Fatalf("recovery with torn tail failed: %v", err)
	}
	defer eng2.Close()
	driveCrashLoad(eng2, 2, 0, 900000, 20, nil)
	if err := log.CheckAcceptedCSR(); err != nil {
		t.Fatalf("trace after torn-tail repair not CSR: %v", err)
	}
}

// TestCrashBitFlip: a flipped bit inside a complete frame is silent medium
// corruption; Open must refuse with ErrCorruptWAL rather than replay a
// history the CRC says never happened.
func TestCrashBitFlip(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenFile(dir, 1, store.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	// No policy: no sweep, no checkpoint, so the WAL keeps every frame.
	eng := New(Config{Shards: 1, Store: fs})
	driveCrashLoad(eng, 3, 0, 1000, 20, nil)
	eng.Close()
	fs.Close()

	wal := filepath.Join(dir, "shard-0.wal")
	data, err := os.ReadFile(wal)
	if err != nil || len(data) == 0 {
		t.Fatalf("read wal: %v (len %d)", err, len(data))
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatalf("write wal: %v", err)
	}

	fs2, err := store.OpenFile(dir, 1, store.Options{})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer fs2.Close()
	if _, _, err := Open(Config{Shards: 1, Store: fs2}); !errors.Is(err, store.ErrCorruptWAL) {
		t.Fatalf("Open over flipped bit = %v, want ErrCorruptWAL", err)
	}
}

// TestCrashFsyncFailStop: an fsync error on one shard fail-stops that shard
// — its strict-mode submissions answer ErrClosed-wrapped refusals — while
// the other shards keep serving. A restart over the same directory comes
// back clean.
func TestCrashFsyncFailStop(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	var syncs atomic.Int64
	fp := func(op store.FailOp) error {
		if op.Shard == 0 && op.Kind == store.OpSync && syncs.Add(1) > 2 {
			return errInjectedCrash
		}
		return nil
	}
	fs, err := store.OpenFile(dir, shards, store.Options{Failpoint: fp})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	eng, _, err := Open(Config{Shards: shards, WALSyncEvery: 1, Store: fs})
	if err != nil {
		t.Fatalf("open engine: %v", err)
	}
	// Shard 0 (even entities): submissions succeed until the third sync,
	// then fail-stop with ErrClosed-wrapped refusals.
	sawDead := false
	for i := 0; i < 10; i++ {
		id := model.TxnID(i + 1)
		res := submit(eng, model.BeginDeclared(id, 0))
		if res.Accepted() {
			res = submit(eng, model.WriteFinal(id, 0))
		}
		if !res.Accepted() {
			if !errors.Is(res.Err, ErrClosed) {
				t.Fatalf("fail-stopped shard answered %v, want ErrClosed wrap", res.Err)
			}
			sawDead = true
			break
		}
	}
	if !sawDead {
		t.Fatal("shard 0 never fail-stopped despite fsync errors")
	}
	// Shard 1 (odd entities) is unaffected.
	mustAccept(t, submit(eng, model.BeginDeclared(100, 1)))
	mustAccept(t, submit(eng, model.WriteFinal(100, 1)))
	eng.Close()
	fs.Close()

	fs2, err := store.OpenFile(dir, shards, store.Options{})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer fs2.Close()
	eng2, _, err := Open(Config{Shards: shards, Store: fs2})
	if err != nil {
		t.Fatalf("recovery after fsync fail-stop: %v", err)
	}
	defer eng2.Close()
	mustAccept(t, submit(eng2, model.BeginDeclared(200, 0)))
	mustAccept(t, submit(eng2, model.WriteFinal(200, 0)))
	mustAccept(t, submit(eng2, model.BeginDeclared(201, 1)))
	mustAccept(t, submit(eng2, model.WriteFinal(201, 1)))
}

// syncFault is a deterministic failpoint: once armed, the shard's WAL writes
// succeed `skip` more times and fail from then on. It fails the write half of
// a Sync (OpWrite), so the record being forced never reaches the medium and
// what recovery finds is exactly what was durable before the fault.
type syncFault struct {
	shard int
	armed atomic.Bool
	skip  atomic.Int64
}

func (f *syncFault) fn(op store.FailOp) error {
	if !f.armed.Load() || op.Shard != f.shard || op.Kind != store.OpWrite {
		return nil
	}
	if f.skip.Add(-1) >= 0 {
		return nil
	}
	return errInjectedCrash
}

// TestCrash2PCJournalFailure pins what a journal failure does at each stage
// of a cross-partition final write over shards 0 and 1. Batched fsyncs and no
// policy, so the only forced writes after arming are the 2PC's own: PREPARE
// on 0, PREPARE on 1, COMMIT on 0 (the commit point), COMMIT on 1.
func TestCrash2PCJournalFailure(t *testing.T) {
	const shards = 2
	for _, tc := range []struct {
		name        string
		shard, skip int  // the faulted shard, and its forced writes that still succeed
		acked       bool // whether the final write is acknowledged — and so must survive
	}{
		// A YES vote that cannot be made durable never reaches the coordinator;
		// recovery sheds the sub the dead shard could not journal the abort of.
		{name: "prepare", shard: 1, skip: 0},
		// No durable evidence of the decision anywhere: not acked, presumed abort.
		{name: "first-commit", shard: 0, skip: 1},
		// The decision is durable on shard 0: acked, recovery finishes shard 1.
		{name: "later-commit", shard: 1, skip: 1, acked: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fault := &syncFault{shard: tc.shard}
			fault.skip.Store(int64(tc.skip))
			fs, err := store.OpenFile(dir, shards, store.Options{Failpoint: fault.fn})
			if err != nil {
				t.Fatalf("open store: %v", err)
			}
			eng, _, err := Open(Config{Shards: shards, Store: fs})
			if err != nil {
				t.Fatalf("open engine: %v", err)
			}
			mustAccept(t, submit(eng, model.BeginDeclared(1, 0, 1)))
			mustAccept(t, submit(eng, model.Read(1, 0)))
			mustAccept(t, submit(eng, model.Read(1, 1)))
			fault.armed.Store(true)
			res := submit(eng, model.WriteFinal(1, 0, 1))
			if res.Accepted() != tc.acked {
				t.Fatalf("final write acked = %v, want %v (err %v)", res.Accepted(), tc.acked, res.Err)
			}
			if !tc.acked && !errors.Is(res.Err, ErrClosed) {
				t.Fatalf("refused final write answered %v, want ErrClosed wrap", res.Err)
			}
			for i, n := range eng.Gauges().Prepared {
				if n != 0 {
					t.Fatalf("shard %d still holds %d prepared subs", i, n)
				}
			}
			if !tc.acked {
				eng.registry.mu.Lock()
				live := len(eng.registry.txns)
				eng.registry.mu.Unlock()
				if live != 0 {
					t.Fatalf("registry still tracks %d transactions after the refusal", live)
				}
			}
			// The faulted shard has fail-stopped; its neighbour still serves.
			dead, alive := model.Entity(tc.shard), model.Entity(1-tc.shard)
			if res := submit(eng, model.BeginDeclared(2, dead)); !errors.Is(res.Err, ErrClosed) {
				t.Fatalf("fail-stopped shard answered %+v (err %v), want ErrClosed wrap", res, res.Err)
			}
			mustAccept(t, submit(eng, model.BeginDeclared(3, alive)))
			mustAccept(t, submit(eng, model.WriteFinal(3, alive)))
			eng.Close()
			fs.Close()
			// Past the commit point the decision stands in memory too, on the
			// participant whose own COMMIT record failed as well.
			for i, sh := range eng.shards {
				if st := sh.sched.Txn(1); tc.acked && (st == nil || st.Status != model.StatusCompleted) {
					t.Fatalf("shard %d: acked T1 is not completed in memory", i)
				}
			}

			fs2, err := store.OpenFile(dir, shards, store.Options{})
			if err != nil {
				t.Fatalf("reopen store: %v", err)
			}
			defer fs2.Close()
			eng2, rep, err := Open(Config{Shards: shards, Store: fs2})
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			wantCommits, wantAborts := 0, 1
			if tc.acked {
				wantCommits, wantAborts = 1, 0
			}
			if rep.CrossCommitted != wantCommits || rep.CrossAborted != wantAborts {
				t.Fatalf("recovery committed %d / aborted %d cross transactions, want %d / %d",
					rep.CrossCommitted, rep.CrossAborted, wantCommits, wantAborts)
			}
			// Close first: every shard shuts down and no later run applies
			// anything, making the schedulers safe to inspect directly.
			eng2.Close()
			for i, sh := range eng2.shards {
				st := sh.sched.Txn(1)
				if retained := st != nil && st.Status == model.StatusCompleted; retained != tc.acked {
					t.Fatalf("shard %d: T1 recovered completed = %v, want %v", i, retained, tc.acked)
				}
			}
		})
	}
}

// TestIdleShardDoesNotRecheckpoint: a checkpoint rewrites the whole snapshot,
// so a sweep that follows no new record must not take one.
func TestIdleShardDoesNotRecheckpoint(t *testing.T) {
	const shards = 2
	st := store.NewMem(shards)
	eng, _, err := Open(Config{Shards: shards, Policy: greedyPolicy, Store: st})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer eng.Close()
	for i := 0; i < 8; i++ {
		id, x := model.TxnID(i+1), model.Entity(i%shards)
		mustAccept(t, submit(eng, model.BeginDeclared(id, x)))
		mustAccept(t, submit(eng, model.WriteFinal(id, x)))
	}
	// sweep sweeps every shard and runs the checkpoint trigger a run that
	// swept runs, with no record appended in between.
	sweep := func() {
		for _, sh := range eng.shards {
			sh.lock()
			sh.sched.SweepNow()
			sh.jr.swept(sh.sched)
			sh.mu.Unlock()
		}
	}
	sweep()
	// The whole of Stats, not CheckpointSeq alone: a snapshot rewritten over
	// an unchanged log keeps its LSN and shows only as one more forced write.
	var idle [shards]store.Stats
	for i := range idle {
		if idle[i] = st.Shard(i).Stats(); idle[i].CheckpointSeq == 0 {
			t.Fatalf("shard %d did not checkpoint at the sweep after its records", i)
		}
	}
	for round := 0; round < 3; round++ {
		sweep()
		for i, want := range idle {
			if got := st.Shard(i).Stats(); got != want {
				t.Fatalf("round %d: idle shard %d re-checkpointed: %+v -> %+v", round, i, want, got)
			}
		}
	}
}

// TestCheckpointWaitsForTheTail: a sweep checkpoints only once the log
// appended since the last checkpoint is non-empty and at least as large as
// that checkpoint's snapshot, so the records of several sweeps build up
// between checkpoints, and reopening replays that whole tail to the state
// the live shard had.
func TestCheckpointWaitsForTheTail(t *testing.T) {
	st := store.NewMem(1)
	eng, _, err := Open(Config{Shards: 1, Policy: greedyPolicy, Store: st})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	sh := eng.shards[0]
	var (
		sweeps                      int64
		seq                         uint64
		ckptAt, snapBytes, ckptRecs int64
		checkpoints, waited         int
	)
	// submit applies step and holds the sweep it ran, if any, to the rule.
	// It reports whether the step's run checkpointed.
	submit := func(step model.Step) bool {
		t.Helper()
		mustAccept(t, submit(eng, step))
		ss := st.Shard(0).Stats()
		swept := eng.Stats().Sweeps
		if swept == sweeps {
			if ss.CheckpointSeq != seq {
				t.Fatalf("%v: checkpoint without a sweep", step)
			}
			return false
		}
		sweeps = swept
		tail := ss.AppendedBytes - ckptAt
		want := tail > 0 && tail >= snapBytes
		if got := ss.CheckpointSeq != seq; got != want {
			t.Fatalf("%v: sweep with a %d B tail over a %d B snapshot: checkpointed %v, want %v", step, tail, snapBytes, got, want)
		}
		if !want {
			if tail > 0 {
				waited++
			}
			return false
		}
		checkpoints++
		waited = 0
		seq, ckptAt, ckptRecs = ss.CheckpointSeq, ss.AppendedBytes, ss.Records
		snapBytes = int64(len(store.EncodeSnapshot(sh.sched.ExportState())))
		return true
	}

	// A sleeper pins four victims, so every snapshot holds five
	// transactions and every sweep keeps four.
	submit(model.BeginDeclared(1, 0))
	next := model.TxnID(100)
	for ; next < 104; next++ {
		trap := model.Entity(next)
		submit(model.Read(1, trap))
		submit(model.BeginDeclared(next, trap))
		submit(model.WriteFinal(next, trap))
	}
	// Unrelated transactions, each deleted at the next sweep, until a
	// checkpoint comes after a sweep that waited with a tail.
	for done := false; !done; next++ {
		if next == 300 {
			t.Fatalf("%d transactions and no checkpoint after a sweep that waited", next-104)
		}
		x := model.Entity(next)
		submit(model.BeginDeclared(next, x))
		w := waited
		done = submit(model.WriteFinal(next, x)) && w > 0
	}
	// Idle transactions, begun and aborted: sweeps that delete nothing,
	// until one waits, so the tail holds more than one sweep's records.
	// Nothing is deleted after the last checkpoint, so the recovered shard
	// must match the live one.
	for waited == 0 {
		if next == 600 {
			t.Fatal("no sweep waited after the last checkpoint")
		}
		submit(model.BeginDeclared(next, model.Entity(next)))
		if !eng.Abort(next) {
			t.Fatalf("abort of idle T%d found nothing", next)
		}
		next++
	}
	tailRecs := st.Shard(0).Stats().Records - ckptRecs
	live := completedIDs(sh.sched)
	eng.Close()

	eng2, rep, err := Open(Config{Shards: 1, Policy: greedyPolicy, Store: st})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer eng2.Close()
	if rep.RecordsReplayed != int(tailRecs) {
		t.Fatalf("replayed %d records, want the %d appended since the last checkpoint", rep.RecordsReplayed, tailRecs)
	}
	if rep.OrphansAborted != 1 {
		t.Fatalf("OrphansAborted = %d, want 1 (the sleeper)", rep.OrphansAborted)
	}
	if got := completedIDs(eng2.shards[0].sched); !slices.Equal(got, live) || len(live) != 4 {
		t.Fatalf("recovered completed set %v, live %v, want the 4 victims on both", got, live)
	}
}

// completedIDs lists the completed transactions a scheduler retains, sorted.
func completedIDs(s *core.Scheduler) []model.TxnID {
	var ids []model.TxnID
	for _, tx := range s.ExportState().Txns {
		if tx.Status == model.StatusCompleted {
			ids = append(ids, tx.ID)
		}
	}
	slices.Sort(ids)
	return ids
}

// TestWALBoundedUnderGovernedSoak: deletion policy = compaction policy. An
// adversarial straggler pins retention; the governor reaps it under the
// watermark; the freed sweeps keep advancing the checkpoint — so the WAL's
// resting size stays a small fraction of the bytes ever appended.
func TestWALBoundedUnderGovernedSoak(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	fs, err := store.OpenFile(dir, shards, store.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	eng, _, err := Open(Config{
		Shards: shards, Policy: greedyPolicy,
		WALSyncEvery: 32, Store: fs,
	})
	if err != nil {
		t.Fatalf("open engine: %v", err)
	}
	// The straggler: oldest active in the system, pinning its completed
	// predecessors against C1 until the governor reaps it.
	mustAccept(t, submit(eng, model.BeginDeclared(1, 0)))
	mustAccept(t, submit(eng, model.Read(1, 0)))
	n := 1200
	if testing.Short() {
		n = 400
	}
	for i := 0; i < n; i++ {
		id := model.TxnID(i + 10)
		x := model.Entity(i % 2)
		mustAccept(t, submit(eng, model.BeginDeclared(id, x)))
		mustAccept(t, submit(eng, model.Read(id, x)))
		mustAccept(t, submit(eng, model.WriteFinal(id, x)))
		if i%64 == 63 {
			eng.govern(32)
		}
	}
	eng.govern(32)
	var appended int64
	for i := 0; i < shards; i++ {
		st := fs.Shard(i).Stats()
		appended += st.AppendedBytes
		if st.CheckpointSeq == 0 {
			t.Fatalf("shard %d never checkpointed under the soak", i)
		}
	}
	eng.Close()
	fs.Close()
	var resting int64
	for i := 0; i < shards; i++ {
		fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("shard-%d.wal", i)))
		if err != nil {
			t.Fatalf("stat wal: %v", err)
		}
		resting += fi.Size()
	}
	if resting > appended/4 {
		t.Fatalf("WAL not truncated: resting %d bytes vs %d appended", resting, appended)
	}
}
