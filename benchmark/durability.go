package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/store"
	"repro/txdel/client"
)

// A committed transaction the deletion policy has reclaimed is forgotten
// by design, so "did my commit survive?" cannot be asked of an arbitrary
// old TxnID. The durability check therefore plants probes it can ask
// about: per shard, a pin transaction reads probesPerShard private
// entities and stays active; one probe transaction per entity then writes
// it and commits. The pin is an active predecessor of every probe and no
// other transaction touches those entities afterwards, so C1 keeps each
// probe retained — until the process dies. After recovery the pin is an
// orphan and aborts, the probes are still retained, and a BEGIN reusing a
// probe's ID must be refused as a duplicate. A probe whose ID can begin
// again was acknowledged and then lost.
const probesPerShard = 8

type probe struct {
	id     model.TxnID
	entity model.Entity
}

const probeBase = model.TxnID(1) << 50

// probeEntity is the i-th private entity of shard p, far above the
// generator's 4096.
func probeEntity(sp *spec, p, i int) model.Entity {
	return model.Entity(p + sp.Shards*(100000+i))
}

// probeSteps lists, for shard p, the pin's steps then each probe's.
func probeSteps(sp *spec, p int) (pin []model.Step, probes [][]model.Step) {
	pinID := probeBase + model.TxnID(p)
	pin = append(pin, model.BeginDeclared(pinID, model.Entity(p)))
	for i := 0; i < probesPerShard; i++ {
		x := probeEntity(sp, p, i)
		pin = append(pin, model.Read(pinID, x))
		id := probeBase + model.TxnID(1000+p*probesPerShard+i)
		probes = append(probes, []model.Step{model.BeginDeclared(id, x), model.WriteFinal(id, x)})
	}
	return pin, probes
}

// plantProbes runs the probe transactions over one connection, one op at a
// time, and returns the probes whose commit was acknowledged.
func plantProbes(d *connDriver, sp *spec) ([]probe, error) {
	var acked []probe
	for p := 0; p < sp.Shards; p++ {
		pin, probes := probeSteps(sp, p)
		for _, st := range pin {
			d.wc.sendStep(st)
			line, err := d.wc.roundTrip()
			if err != nil {
				return nil, err
			}
			if stepVerdict(line) != vAccepted {
				return nil, fmt.Errorf("pin step %v: %s", st, line)
			}
		}
		for _, steps := range probes {
			for _, st := range steps {
				d.wc.sendStep(st)
				line, err := d.wc.roundTrip()
				if err != nil {
					return nil, err
				}
				switch v := stepVerdict(line); {
				case v == vCommitted:
					acked = append(acked, probe{id: st.Txn, entity: st.Entities[0]})
				case v != vAccepted:
					return nil, fmt.Errorf("probe step %v: %s", st, line)
				}
			}
		}
	}
	return acked, nil
}

// probeTally is what planting the probes added to the generator's tally.
func probeTally(acked []probe, sp *spec) tally {
	pinSteps := int64(sp.Shards * (1 + probesPerShard))
	n := int64(len(acked))
	return tally{steps: pinSteps + 2*n, accepted: pinSteps + 2*n, begun: int64(sp.Shards) + n, committed: n}
}

// killAndRecover is the out-of-process crash: kill -9, restart on the
// surviving data dir, time spawn → listening → first reply, then count
// acknowledged probes the recovered server no longer knows. kill -9
// leaves the OS page cache intact, so this proves the process-crash
// contract only; truncationPass covers unflushed bytes.
func killAndRecover(e *env, sp *spec, rig *tcpRig, probes []probe) (recoveryS float64, lost int64, err error) {
	for _, d := range rig.drv {
		d.wc.close()
	}
	rig.srv.kill()
	t0 := time.Now()
	srv, err := startServer(e.serverBin, serverArgs(sp, rig.dataDir))
	if err != nil {
		return 0, 0, err
	}
	rig.srv = srv
	wc, err := dialWire(srv.addr)
	if err != nil {
		return 0, 0, err
	}
	defer wc.close()
	recoveryS = time.Since(t0).Seconds()
	for _, pr := range probes {
		wc.sendStep(model.BeginDeclared(pr.id, pr.entity))
		line, err := wc.roundTrip()
		if err != nil {
			return 0, 0, err
		}
		if stepVerdict(line) == vAccepted {
			lost++
			wc.sendAbort(pr.id)
			if _, err := wc.roundTrip(); err != nil {
				return 0, 0, err
			}
		}
	}
	return recoveryS, lost, nil
}

// truncStore wraps the file backend and remembers, per shard, how long the
// WAL file was at the last successful Sync or Checkpoint — the bytes the
// store promised are on the medium. crash() cuts every WAL back to that
// length, which is what a power loss may do to bytes that were written
// but never forced.
type truncStore struct {
	*store.File
	shards []truncShard
}

type truncShard struct {
	store.ShardStore
	path string
	// mu serialises the shard goroutine's forcing calls with freeze, so the
	// kill point falls between two of them, never inside one.
	mu   sync.Mutex
	safe int64
	// frozen marks the kill point: the medium refuses everything after it,
	// as a dead disk would, so the files stay as the crash found them.
	frozen bool
}

var errFrozen = errors.New("benchmark: store frozen at the kill point")

func openTruncStore(dir string, n int) (*truncStore, error) {
	f, err := store.OpenFile(dir, n, store.Options{})
	if err != nil {
		return nil, err
	}
	ts := &truncStore{File: f, shards: make([]truncShard, n)}
	for i := range ts.shards {
		ts.shards[i].ShardStore = f.Shard(i)
		ts.shards[i].path = filepath.Join(dir, fmt.Sprintf("shard-%d.wal", i))
	}
	return ts, nil
}

func (ts *truncStore) Shard(i int) store.ShardStore { return &ts.shards[i] }

// forced runs one forcing call and, if it succeeded, records the WAL's
// length as safe.
func (s *truncShard) forced(op func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen {
		return errFrozen
	}
	if err := op(); err != nil {
		return err
	}
	fi, err := os.Stat(s.path)
	if err != nil {
		return err
	}
	s.safe = fi.Size()
	return nil
}

func (s *truncShard) Sync() error { return s.forced(s.ShardStore.Sync) }

func (s *truncShard) Checkpoint(snapshot []byte) error {
	return s.forced(func() error { return s.ShardStore.Checkpoint(snapshot) })
}

// freeze is the kill point: nothing is forced from here on.
func (ts *truncStore) freeze() {
	for i := range ts.shards {
		ts.shards[i].mu.Lock()
		ts.shards[i].frozen = true
		ts.shards[i].mu.Unlock()
	}
}

// crash discards every WAL byte past the last length forced before the
// kill point. The shard goroutines have exited by now.
func (ts *truncStore) crash() error {
	for i := range ts.shards {
		if err := os.Truncate(ts.shards[i].path, ts.shards[i].safe); err != nil {
			return err
		}
	}
	return nil
}

// truncationPass is the embedded durability check that really discards
// unflushed bytes: plant probes through a strict-mode (sync per record)
// client.DB on a truncStore, freeze the forced lengths at the kill point,
// close, truncate, reopen, and count acknowledged probes whose ID begins
// again.
func truncationPass(e *env, sp *spec) (lost int64, err error) {
	dir, err := e.newDir("trunc")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	ts, err := openTruncStore(dir, sp.Shards)
	if err != nil {
		return 0, err
	}
	cfg := client.Config{Shards: sp.Shards, Policy: sp.Policy, Store: ts, FsyncBatch: 1}
	db, err := client.Open(cfg)
	if err != nil {
		ts.Close()
		return 0, err
	}
	var acked []probe
	for p := 0; p < sp.Shards; p++ {
		pin, probes := probeSteps(sp, p)
		for _, r := range db.SubmitBatch(pin) {
			if r.Err != nil {
				db.Close()
				ts.Close()
				return 0, fmt.Errorf("pin: %w", r.Err)
			}
		}
		for _, steps := range probes {
			rs := db.SubmitBatch(steps)
			if rs[1].Err == nil && rs[1].CompletedTxn == steps[1].Txn {
				acked = append(acked, probe{id: steps[1].Txn, entity: steps[1].Entities[0]})
			}
		}
	}
	ts.freeze()
	_ = db.Close() // the "crashed" engine's shutdown sync is refused; its error is the point
	if err := ts.Close(); err != nil {
		return 0, err
	}
	if err := ts.crash(); err != nil {
		return 0, err
	}

	cfg.Store = nil
	cfg.DataDir = dir
	db, err = client.Open(cfg)
	if err != nil {
		return 0, fmt.Errorf("reopen after truncation: %w", err)
	}
	defer db.Close()
	for _, pr := range acked {
		txn, err := db.Begin(context.Background(), client.WithID(pr.id), client.WithFootprint(pr.entity))
		switch {
		case err == nil:
			lost++
			_ = txn.Abort() // Abort of a live session cannot fail
		case !errors.Is(err, client.ErrProtocol):
			return 0, fmt.Errorf("probe T%d after recovery: %w", pr.id, err)
		}
	}
	return lost, nil
}
