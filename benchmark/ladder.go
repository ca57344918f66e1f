package main

import (
	"context"
	"fmt"
	"math"
	"os"

	"repro/internal/emit"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/ring"
	"repro/internal/store"
	"repro/txdel/client"
)

// ladderTolerance is how far the ladder's sum of self times may sit from
// the end-to-end median before the reconciliation counts as missed. A miss
// is reported, not hidden.
const ladderTolerance = 0.25

// clockGapNS is what a span's two clock reads add to its duration,
// measured once so means of sub-microsecond calls can be corrected.
var clockGapNS = func() float64 {
	const n = 200000
	var sum int64
	for i := 0; i < n; i++ {
		t0 := now()
		sum += now() - t0
	}
	return float64(sum) / n
}()

func corrected(h *hist) float64 { return math.Max(h.mean()-clockGapNS, 0) }

// ladder holds what the rungs of one workload measured; every per-txn
// figure is microseconds per transaction of the replayed stream.
type ladder struct {
	e   *env
	sp  *spec
	ls  *ladderStream
	res *result
	log *spanLog
	on  func(rung string) bool

	graphUS, coreUS, ringUS, storeUS float64
	engineUS, clientUS, serveUS      float64
	storeDir                         string
}

// runLadder is the traced ladder run of one workload: the seeded stream is
// materialised once and replayed against one rung per module, each call
// into the module wrapped in a span. rung restricts the run to one rung.
func runLadder(e *env, sp *spec, seed int64, rung string, res *result) error {
	l := &ladder{e: e, sp: sp, res: res, log: res.log,
		on: func(r string) bool { return rung == "" || rung == r }}
	l.ls = materialise(sp, seed)
	fmt.Fprintf(os.Stderr, "ladder %s: %v\n", sp.Name, l.ls)
	for _, m := range layerMetrics {
		if _, ok := res.metrics[m.Name]; !ok {
			res.set(m.Name, 0, 0) // a rung that does not apply to this workload reports zero
		}
	}
	steps := []struct {
		name string
		run  func() error
	}{
		{"core", l.coreRung}, {"graph", l.graphRung}, {"ring", l.ringRung}, {"store", l.storeRung},
		{"engine", l.engineRung}, {"emit", l.emitRung}, {"client", l.clientRung}, {"serve", l.serveRung},
	}
	for _, s := range steps {
		if !l.on(s.name) {
			continue
		}
		if err := s.run(); err != nil {
			return fmt.Errorf("%s rung: %w", s.name, err)
		}
	}
	if l.storeDir != "" {
		os.RemoveAll(l.storeDir)
	}
	if rung == "" {
		l.reconcile()
	}
	return nil
}

// coreRung replays the local view on one scheduler per partition: once
// untimed per call for the per-step mean and the allocation count, once
// with a span around every Apply for the tail, and once under nogc — the
// paper's Theorem 2 says deletion changes no decision, so the two runs
// must agree step for step.
func (l *ladder) coreRung() error {
	ops, txns := l.ls.local, float64(max(l.ls.localTxns, 1))
	bulk := newCoreRung(l.sp, policyOf(l.sp.Policy), nil)
	m0, t0 := mallocs(), now()
	mismatch := bulk.replay(ops)
	wall, m1 := now()-t0, mallocs()

	traced := newCoreRung(l.sp, policyOf(l.sp.Policy), l.log)
	mismatch += traced.replay(ops)
	mismatch += newCoreRung(l.sp, policyOf("nogc"), nil).replay(ops)

	st := bulk.merged()
	l.coreUS = float64(wall) / 1e3 / txns
	l.res.set("core.apply_ns_per_step", float64(wall-bulk.sweepNS)/float64(max(bulk.steps, 1)), bulk.steps)
	l.res.set("core.apply_p99_ns", l.log.hist("core.apply").quantile(0.99), bulk.steps)
	l.res.set("core.sweep_us", bulk.sweepHist.mean()/1e3, bulk.sweeps)
	l.res.set("core.sweep_p99_us", bulk.sweepHist.quantile(0.99)/1e3, bulk.sweeps)
	l.res.set("core.sweeps", float64(bulk.sweeps), 0)
	l.res.set("core.deleted_per_candidate", ratio(bulk.freed, bulk.candidates), bulk.candidates)
	l.res.set("core.kept_avg", st.AvgKept()*float64(l.sp.Shards), st.KeptSample)
	l.res.set("core.kept_peak", float64(st.PeakKept), 0)
	l.res.set("core.reject_frac", ratio(bulk.rejects, bulk.steps), bulk.steps)
	l.res.set("core.allocs_per_txn", float64(m1-m0)/txns, int64(txns))
	l.res.set("core.skipped_cross", float64(l.ls.skippedCross), 0)
	l.res.set("core.decision_mismatch", float64(mismatch), bulk.steps)
	if mismatch != 0 {
		l.res.problem("core: %d decisions differ between replays of one stream (policy vs nogc must agree: Theorem 2)", mismatch)
	}
	l.res.set("graph.nodes_peak", float64(st.PeakNodes), 0)
	l.res.set("graph.arcs_peak", float64(st.PeakArcs), 0)
	return nil
}

// gtxn is the graph rung's record of one node: what the benchmark-side
// reader/writer index needs to take it out again.
type gtxn struct {
	ref    graph.Ref
	reads  []model.Entity
	writes []model.Entity
}

// graphRung drives the graph kernel alone with the conflict arcs the
// stream implies: a benchmark-side reader/writer index per partition
// decides which nodes are arc tails, the kernel answers the cycle test and
// links, and nodes are reduced in the order the core rung's sweeps deleted
// them.
func (l *ladder) graphRung() error {
	n := l.sp.Shards
	gs := make([]*graph.Graph, n)
	readers := make([]map[model.Entity][]graph.Ref, n)
	writers := make([]map[model.Entity][]graph.Ref, n)
	for i := range gs {
		gs[i] = graph.New()
		readers[i] = map[model.Entity][]graph.Ref{}
		writers[i] = map[model.Entity][]graph.Ref{}
	}
	txns := map[model.TxnID]*gtxn{}
	kAdd, kCheck := l.log.kind("graph.addnode"), l.log.kind("graph.cyclecheck")
	kLink, kReduce := l.log.kind("graph.link"), l.log.kind("graph.reduce")
	forget := func(p int, t *gtxn) {
		for _, x := range t.reads {
			readers[p][x] = graph.DropRef(readers[p][x], t.ref)
		}
		for _, x := range t.writes {
			writers[p][x] = graph.DropRef(writers[p][x], t.ref)
		}
	}
	var mismatch int64
	for i := range l.ls.local {
		o := &l.ls.local[i]
		g, id := gs[o.part], o.step.Txn
		switch {
		case o.reap:
			if t := txns[id]; t != nil {
				forget(o.part, t)
				g.RemoveRef(t.ref)
				delete(txns, id)
			}
		case o.step.Kind == model.KindBegin:
			t0 := now()
			ref := g.AddNodeRef(id)
			l.log.add(kAdd, int64(id), 0, t0, now())
			txns[id] = &gtxn{ref: ref}
		default:
			t := txns[id]
			if t == nil {
				continue
			}
			xs := o.step.Entities
			if o.step.Kind == model.KindRead {
				xs = []model.Entity{o.step.Entity}
			}
			t0 := now()
			g.ResetTargets()
			for _, x := range xs {
				if o.step.Kind == model.KindWriteFinal {
					for _, r := range readers[o.part][x] {
						if r != t.ref {
							g.MarkTarget(r)
						}
					}
				}
				for _, w := range writers[o.part][x] {
					if w != t.ref {
						g.MarkTarget(w)
					}
				}
			}
			cycle := g.ReachesAnyTarget(t.ref)
			t1 := now()
			l.log.add(kCheck, int64(id), 0, t0, t1)
			if cycle == o.accept {
				mismatch++
			}
			if cycle {
				forget(o.part, t)
				g.RemoveRef(t.ref)
				delete(txns, id)
				break
			}
			g.LinkTargetsTo(t.ref)
			l.log.add(kLink, int64(id), 0, t1, now())
			if o.step.Kind == model.KindRead {
				readers[o.part][xs[0]] = append(readers[o.part][xs[0]], t.ref)
				t.reads = append(t.reads, xs[0])
			} else {
				for _, x := range xs {
					writers[o.part][x] = append(writers[o.part][x], t.ref)
				}
				t.writes = append(t.writes, xs...)
			}
		}
		for _, sw := range o.swept {
			for _, id := range sw.deleted {
				t := txns[id]
				if t == nil {
					continue
				}
				forget(sw.part, t)
				t0 := now()
				gs[sw.part].ReduceRef(t.ref)
				l.log.add(kReduce, int64(id), 0, t0, now())
				delete(txns, id)
			}
		}
	}
	var total float64
	for _, k := range []*spanKind{kAdd, kCheck, kLink, kReduce} {
		total += math.Max(float64(k.h.sum)-clockGapNS*float64(k.h.n), 0)
	}
	l.graphUS = total / 1e3 / float64(max(l.ls.localTxns, 1))
	l.res.set("graph.cyclecheck_ns", corrected(&kCheck.h), kCheck.h.n)
	l.res.set("graph.link_ns", corrected(&kLink.h), kLink.h.n)
	l.res.set("graph.reduce_ns", corrected(&kReduce.h), kReduce.h.n)
	if l.coreUS > 0 {
		l.res.set("graph.share_of_core", l.graphUS/l.coreUS, 0)
	}
	if mismatch != 0 {
		l.res.problem("graph: %d cycle tests disagree with the core rung's decisions", mismatch)
	}
	// Output check: the kernel driven from outside must end where the
	// scheduler's own graph ended.
	ref := newCoreRung(l.sp, policyOf(l.sp.Policy), nil)
	ref.replay(l.ls.local)
	nodes := 0
	for _, g := range gs {
		nodes += g.NumNodes()
	}
	if nodes != ref.numNodes() {
		l.res.problem("graph: rung ends with %d nodes, the core rung's graphs hold %d", nodes, ref.numNodes())
	}
	return nil
}

// ringRung times Mailbox.Send against an echo consumer: the cost of one
// shard round-trip with nothing behind it.
func (l *ladder) ringRung() error {
	mb := ring.NewMailbox[int64, int64](1024)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			req, tk, fire, ok := mb.Next()
			if !ok {
				if !mb.Park(stop) {
					return
				}
				continue
			}
			if !fire {
				mb.Reply(tk, req)
			}
		}
	}()
	n := min(len(l.ls.full), 50000)
	t0 := now()
	for i := 0; i < n; i++ {
		mb.Send(int64(i), stop)
	}
	wall := now() - t0
	k := l.log.kind("ring.send")
	for i := 0; i < n; i++ {
		s := now()
		mb.Send(int64(i), stop)
		l.log.add(k, int64(i), 0, s, now())
	}
	close(stop)
	<-done
	sendNS := float64(wall) / float64(n)
	hops := l.ls.batchHops
	if l.sp.perStep() {
		hops = l.ls.stepHops
	}
	l.ringUS = sendNS * float64(hops) / 1e3 / float64(max(l.ls.txns, 1))
	l.res.set("ring.send_ns", sendNS, int64(n))
	l.res.set("ring.send_p99_ns", l.log.hist("ring.send").quantile(0.99), int64(n))
	return nil
}

// storeRung pushes the accepted-record stream through the file backend
// the way a shard does: Append per record, Sync at the workload's cadence,
// Flush where a submitted batch ends, a Checkpoint of the scheduler's
// exported state after every sweep, and finally Load. A scheduler runs in
// tandem (untimed) only to have real state to snapshot.
func (l *ladder) storeRung() error {
	if !l.sp.Durable {
		return nil
	}
	dir, err := l.e.newDir("store")
	if err != nil {
		return err
	}
	l.storeDir = dir
	fs, err := store.OpenFile(dir, l.sp.Shards, store.Options{})
	if err != nil {
		return err
	}
	syncEvery := l.sp.FsyncBatch
	if syncEvery <= 0 {
		syncEvery = 64
	}
	tandem := newCoreRung(l.sp, policyOf(l.sp.Policy), nil)
	pending := make([]int, l.sp.Shards)
	dirty := make([]bool, l.sp.Shards)
	kAppend, kSync, kFlush := l.log.kind("store.append"), l.log.kind("store.sync"), l.log.kind("store.flush")
	kEncode, kCkpt, kLoad := l.log.kind("store.snapshot_encode"), l.log.kind("store.checkpoint"), l.log.kind("store.load")
	var ckptBytes int64
	var rec store.Record
	journal := func(p int, kind store.RecKind, st model.Step) error {
		sh := fs.Shard(p)
		rec = store.Record{Kind: kind, Txn: st.Txn, Entity: st.Entity, Entities: st.Entities}
		t0 := now()
		if err := sh.Append(&rec); err != nil {
			return err
		}
		t1 := now()
		l.log.add(kAppend, int64(st.Txn), 0, t0, t1)
		pending[p]++
		dirty[p] = true
		if pending[p] >= syncEvery {
			if err := sh.Sync(); err != nil {
				return err
			}
			l.log.add(kSync, int64(st.Txn), 0, t1, now())
			pending[p] = 0
		}
		return nil
	}
	recKind := [...]store.RecKind{model.KindBegin: store.RecBegin, model.KindRead: store.RecRead, model.KindWriteFinal: store.RecWrite}
	start := now()
	for i := range l.ls.local {
		o := &l.ls.local[i]
		switch {
		case o.reap:
			tandem.abort(o.part, o.step.Txn)
			err = journal(o.part, store.RecAbort, o.step)
		case tandem.apply(o.part, o.step):
			err = journal(o.part, recKind[o.step.Kind], o.step)
		default:
			err = journal(o.part, store.RecAbort, model.Step{Txn: o.step.Txn})
		}
		if err != nil {
			return err
		}
		if o.txnEnd {
			t0 := now()
			if err := fs.Shard(o.part).Flush(); err != nil {
				return err
			}
			l.log.add(kFlush, int64(o.step.Txn), 0, t0, now())
		}
		for _, sw := range o.swept {
			tandem.sweep(sw.part)
			if !dirty[sw.part] {
				continue
			}
			t0 := now()
			snap := store.EncodeSnapshot(tandem.scheds[sw.part].ExportState())
			t1 := now()
			if err := fs.Shard(sw.part).Checkpoint(snap); err != nil {
				return err
			}
			t2 := now()
			l.log.add(kEncode, 0, 0, t0, t1)
			l.log.add(kCkpt, 0, 0, t1, t2)
			ckptBytes += int64(len(snap))
			pending[sw.part], dirty[sw.part] = 0, false
		}
	}
	wall := now() - start
	var st store.Stats
	for p := 0; p < l.sp.Shards; p++ {
		s := fs.Shard(p).Stats()
		st.Fsyncs += s.Fsyncs
		st.AppendedBytes += s.AppendedBytes
		st.Records += s.Records
	}
	if err := fs.Close(); err != nil {
		return err
	}
	// Reopen and Load: what recovery reads before it replays anything.
	fs, err = store.OpenFile(dir, l.sp.Shards, store.Options{})
	if err != nil {
		return err
	}
	tail := 0
	t0 := now()
	for p := 0; p < l.sp.Shards; p++ {
		state, err := fs.Shard(p).Load()
		if err != nil {
			fs.Close()
			return err
		}
		tail += len(state.Tail)
	}
	loadNS := now() - t0
	l.log.add(kLoad, 0, 0, t0, t0+loadNS)
	if err := fs.Close(); err != nil {
		return err
	}

	txns := float64(max(l.ls.localTxns, 1))
	var self int64
	for _, k := range []*spanKind{kAppend, kSync, kFlush, kEncode, kCkpt} {
		self += k.h.sum
	}
	l.storeUS = float64(self) / 1e3 / txns
	l.res.set("store.append_ns", corrected(&kAppend.h), kAppend.h.n)
	l.res.set("store.sync_us", kSync.h.mean()/1e3, kSync.h.n)
	l.res.set("store.sync_p99_us", kSync.h.quantile(0.99)/1e3, kSync.h.n)
	l.res.set("store.syncs_per_txn", float64(st.Fsyncs)/txns, st.Fsyncs)
	l.res.set("store.bytes_per_txn", float64(st.AppendedBytes)/txns, st.Records)
	l.res.set("store.snapshot_encode_us", kEncode.h.mean()/1e3, kEncode.h.n)
	l.res.set("store.checkpoint_us", kCkpt.h.mean()/1e3, kCkpt.h.n)
	l.res.set("store.checkpoint_bytes", float64(ckptBytes)/math.Max(float64(kCkpt.h.n), 1), kCkpt.h.n)
	l.res.set("store.checkpoints", float64(kCkpt.h.n), 0)
	l.res.set("store.stall_frac", float64(kSync.h.sum+kCkpt.h.sum)/float64(max(wall, 1)), 0)
	l.res.set("store.load_ms", float64(loadNS)/1e6, 0)
	l.res.set("store.tail_records", float64(tail), 0)
	l.res.set("store.self_us_per_txn", l.storeUS, int64(txns))
	return nil
}

// engineConfig is the workload's engine configuration, governor ticker
// included, as client.Open would build it.
func (l *ladder) engineConfig(st store.Store, bus *emit.Bus) engine.Config {
	return engine.Config{Shards: l.sp.Shards, Policy: policyOf(l.sp.Policy),
		RetentionWatermark: l.sp.RetentionWatermark, Store: st, WALSyncEvery: l.sp.FsyncBatch, Bus: bus}
}

// withEngine opens an engine (on a fresh data dir when the workload is
// durable), runs f and closes everything.
func (l *ladder) withEngine(bus *emit.Bus, f func(*engine.Engine)) (engine.Stats, error) {
	var fs *store.File
	var st store.Store
	if l.sp.Durable {
		dir, err := l.e.newDir("engine")
		if err != nil {
			return engine.Stats{}, err
		}
		defer os.RemoveAll(dir)
		if fs, err = store.OpenFile(dir, l.sp.Shards, store.Options{}); err != nil {
			return engine.Stats{}, err
		}
		st = fs
	}
	eng, _, err := engine.Open(l.engineConfig(st, bus))
	if err != nil {
		return engine.Stats{}, err
	}
	f(eng)
	stats := eng.Stats()
	eng.Close()
	if fs != nil {
		if err := fs.Close(); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// submitSteps replays the full stream one SubmitCtx per step, timing
// cross-partition commits on their own.
func (l *ladder) submitSteps(eng *engine.Engine, log *spanLog) (wallNS int64, cross *hist) {
	ctx := context.Background()
	k, cross := log.kind("engine.submit"), &hist{}
	isCross := map[model.TxnID]bool{}
	start := now()
	for _, st := range l.ls.full {
		if st.Kind == model.KindBegin {
			home := int(uint32(st.Entities[0])) % l.sp.Shards
			for _, x := range st.Entities[1:] {
				if int(uint32(x))%l.sp.Shards != home {
					isCross[st.Txn] = true
				}
			}
		}
		timed := log != nil || (st.Kind == model.KindWriteFinal && isCross[st.Txn])
		var t0 int64
		if timed {
			t0 = now()
		}
		res := eng.SubmitCtx(ctx, st)
		if timed {
			t1 := now()
			log.add(k, int64(st.Txn), 0, t0, t1)
			if st.Kind == model.KindWriteFinal && isCross[st.Txn] && res.Err == nil {
				cross.record(t1 - t0)
			}
		}
	}
	return now() - start, cross
}

// submitBatches replays the full stream one SubmitBatchInto per chunk.
func (l *ladder) submitBatches(eng *engine.Engine, batches *hist) (wallNS int64) {
	results := make([]engine.Result, 0, l.ls.chunk)
	start := now()
	for i := 0; i < len(l.ls.full); i += l.ls.chunk {
		t0 := now()
		results = eng.SubmitBatchInto(results[:0], l.ls.full[i:min(i+l.ls.chunk, len(l.ls.full))])
		if batches != nil {
			batches.record(now() - t0)
		}
	}
	return now() - start
}

// engineRung drives engine.Open with the workload's configuration: the
// stream per step (spans off, then on — the difference is what tracing
// costs), the stream in batches, and a reopen on the directory the store
// rung left behind.
func (l *ladder) engineRung() error {
	txns := float64(max(l.ls.txns, 1))
	var stepNS, tracedNS, batchNS int64
	var cross *hist
	stats, err := l.withEngine(nil, func(eng *engine.Engine) { stepNS, cross = l.submitSteps(eng, nil) })
	if err != nil {
		return err
	}
	if _, err := l.withEngine(nil, func(eng *engine.Engine) { tracedNS, _ = l.submitSteps(eng, l.log) }); err != nil {
		return err
	}
	var batches hist
	var allocs uint64
	if _, err := l.withEngine(nil, func(eng *engine.Engine) {
		m0 := mallocs()
		batchNS = l.submitBatches(eng, &batches)
		allocs = mallocs() - m0
	}); err != nil {
		return err
	}
	stepUS, batchUS := float64(stepNS)/1e3/txns, float64(batchNS)/1e3/txns
	l.engineUS = batchUS
	if l.sp.perStep() {
		l.engineUS = stepUS
	}
	l.res.set("engine.submit_us_per_step", float64(stepNS)/1e3/float64(len(l.ls.full)), int64(len(l.ls.full)))
	l.res.set("engine.batch_us_per_txn", batchUS, int64(txns))
	l.res.set("engine.batch_p99_us", batches.quantile(0.99)/1e3, batches.n)
	l.res.set("engine.self_us_per_txn", l.engineUS-l.coreUS-l.storeUS-l.ringUS, int64(txns))
	l.res.set("engine.allocs_per_txn", float64(allocs)/txns, int64(txns))
	l.res.set("engine.cross_commit_us", cross.mean()/1e3, cross.n)
	l.res.set("engine.prepares_per_cross", ratio(stats.Prepares, stats.CrossTxns), stats.CrossTxns)
	l.res.set("engine.cross_abort_frac", ratio(stats.CrossAborts, stats.CrossTxns), stats.CrossTxns)
	if l.sp.Door == "tcp" { // the embedded door reads these off its own end-to-end run
		l.res.set("engine.reaped", float64(stats.Reaped), 0)
		l.res.set("engine.shed", float64(stats.Shed), 0)
	}
	l.res.set("trace.overhead_frac", float64(tracedNS-stepNS)/float64(max(stepNS, 1)), int64(len(l.ls.full)))

	if l.storeDir != "" {
		fs, err := store.OpenFile(l.storeDir, l.sp.Shards, store.Options{})
		if err != nil {
			return err
		}
		t0 := now()
		eng, rep, err := engine.Open(l.engineConfig(fs, nil))
		if err != nil {
			fs.Close()
			return fmt.Errorf("reopen on the store rung's directory: %w", err)
		}
		recNS := now() - t0
		eng.Close()
		if err := fs.Close(); err != nil {
			return err
		}
		l.res.set("engine.recovery_ms", float64(recNS)/1e6, 0)
		l.res.set("engine.records_replayed", float64(rep.RecordsReplayed), 0)
	}
	return nil
}

// emitRung is the engine's batch replay with a telemetry bus and a
// counting sink attached, paired against the same replay without.
func (l *ladder) emitRung() error {
	var offNS, onNS int64
	if _, err := l.withEngine(nil, func(eng *engine.Engine) { offNS = l.submitBatches(eng, nil) }); err != nil {
		return err
	}
	bus := emit.NewBus(0, &emit.CountingSink{})
	_, err := l.withEngine(bus, func(eng *engine.Engine) { onNS = l.submitBatches(eng, nil) })
	emitted, dropped := bus.Emitted(), bus.Dropped()
	if cerr := bus.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	l.res.set("emit.overhead_ns_per_txn", float64(onNS-offNS)/float64(max(l.ls.txns, 1)), int64(l.ls.txns))
	l.res.set("emit.dropped_frac", float64(dropped)/math.Max(float64(emitted+dropped), 1), int64(emitted+dropped))
	return nil
}

// clientReplay drives txdel/client in process the way the workload's door
// does: Begin/Read/Write sessions where the wire sends one op per step,
// DB.SubmitBatch where it sends batches.
func (l *ladder) clientReplay(verify bool, log *spanLog) (wallNS int64, err error) {
	dir := ""
	if l.sp.Durable {
		if dir, err = l.e.newDir("client"); err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
	}
	cfg := clientConfig(l.sp, dir)
	cfg.Verify = verify
	db, err := client.Open(cfg)
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	kinds := [...]*spanKind{log.kind("client.begin"), log.kind("client.read"), log.kind("client.write")}
	start := now()
	if l.sp.perStep() {
		live := map[model.TxnID]*client.Txn{}
		for _, st := range l.ls.full {
			var t0 int64
			if log != nil {
				t0 = now()
			}
			switch st.Kind {
			case model.KindBegin:
				if txn, err := db.Begin(ctx, client.WithID(st.Txn), client.WithFootprint(st.Entities...)); err == nil {
					live[st.Txn] = txn
				}
			case model.KindRead:
				if txn := live[st.Txn]; txn != nil && txn.Read(ctx, st.Entity) != nil {
					delete(live, st.Txn)
				}
			default:
				if txn := live[st.Txn]; txn != nil {
					_ = txn.Write(ctx, st.Entities...) // commit or abort, the session ends either way
					delete(live, st.Txn)
				}
			}
			if log != nil {
				log.add(kinds[st.Kind], int64(st.Txn), 0, t0, now())
			}
		}
	} else {
		for i := 0; i < len(l.ls.full); i += l.ls.chunk {
			db.SubmitBatch(l.ls.full[i:min(i+l.ls.chunk, len(l.ls.full))])
		}
	}
	wallNS = now() - start
	if err := db.Close(); err != nil {
		return wallNS, fmt.Errorf("client.DB.Close: %w", err)
	}
	return wallNS, nil
}

// clientRung times the in-process client, then repeats the replay with
// Verify on: Close then replays the accepted subschedule through the CSR
// referee and must return nil.
func (l *ladder) clientRung() error {
	txns := float64(max(l.ls.txns, 1))
	m0 := mallocs()
	wall, err := l.clientReplay(false, nil)
	if err != nil {
		return err
	}
	allocs := mallocs() - m0
	if _, err := l.clientReplay(false, l.log); err != nil {
		return err
	}
	if _, err := l.clientReplay(true, nil); err != nil {
		l.res.problem("client rung with Verify: %v", err)
	}
	l.clientUS = float64(wall) / 1e3 / txns
	l.res.set("client.begin_us", l.log.hist("client.begin").mean()/1e3, l.log.hist("client.begin").n)
	l.res.set("client.read_us", l.log.hist("client.read").mean()/1e3, l.log.hist("client.read").n)
	l.res.set("client.write_us", l.log.hist("client.write").mean()/1e3, l.log.hist("client.write").n)
	l.res.set("client.self_us_per_txn", l.clientUS-l.engineUS, int64(txns))
	l.res.set("client.allocs_per_txn", float64(allocs)/txns, int64(txns))
	return nil
}

// serveRung replays the stream against a real txgc-serve over one
// connection with one op in flight: the wire and the server's session
// layer on top of everything below.
func (l *ladder) serveRung() error {
	if l.sp.Door != "tcp" {
		return nil
	}
	dir := ""
	if l.sp.Durable {
		var err error
		if dir, err = l.e.newDir("serve"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	srv, err := startServer(l.e.serverBin, serverArgs(l.sp, dir))
	if err != nil {
		return err
	}
	defer srv.stop()
	wc, err := dialWire(srv.addr)
	if err != nil {
		return err
	}
	defer wc.close()
	k := l.log.kind("serve.roundtrip")
	dead := map[model.TxnID]bool{}
	ops := 0
	start := now()
	send := func(id model.TxnID) ([]byte, error) {
		t0 := now()
		line, err := wc.roundTrip()
		l.log.add(k, int64(id), 0, t0, now())
		ops++
		return line, err
	}
	if l.sp.perStep() {
		for _, st := range l.ls.full {
			if dead[st.Txn] {
				continue
			}
			wc.sendStep(st)
			line, err := send(st.Txn)
			if err != nil {
				return err
			}
			switch stepVerdict(line) {
			case vAborted:
				dead[st.Txn] = true
			case vFailed:
				return fmt.Errorf("step %v: %s", st, line)
			}
		}
	} else {
		for i := 0; i < len(l.ls.full); i += l.ls.chunk {
			chunk := l.ls.full[i:min(i+l.ls.chunk, len(l.ls.full))]
			wc.sendBatch(chunk)
			line, err := send(chunk[0].Txn)
			if err != nil {
				return err
			}
			if v, _ := batchVerdict(line, len(chunk)); v == vFailed {
				return fmt.Errorf("batch at step %d: %s", i, line)
			}
		}
	}
	wall := now() - start
	txns := float64(max(l.ls.txns, 1))
	l.serveUS = float64(wall) / 1e3 / txns
	l.res.set("serve.rtt_us_per_op", (l.serveUS-l.clientUS)*txns/float64(max(ops, 1)), int64(ops))
	l.res.set("serve.self_us_per_txn", l.serveUS-l.clientUS, int64(txns))
	return nil
}

// reconcile adds the rungs' self times up and holds the sum against the
// end-to-end figure of the traced run.
func (l *ladder) reconcile() {
	coreSelf := l.coreUS - l.graphUS
	engineSelf := l.engineUS - l.coreUS - l.storeUS - l.ringUS
	sum := l.graphUS + coreSelf + l.ringUS + l.storeUS + engineSelf + (l.clientUS - l.engineUS)
	e2e := l.res.metrics["txn_p50_us"]
	if l.sp.Door == "tcp" {
		sum += l.serveUS - l.clientUS
	} else {
		// Closed loop in process: the run's wall time per committed
		// transaction, which is what the rungs' replays measure too.
		e2e = 1e6 / math.Max(l.res.metrics["goodput_txn_s"], 1)
	}
	residual := math.Abs(sum-e2e) / math.Max(e2e, 1e-9)
	l.res.set("ladder.sum_us_per_txn", sum, 0)
	l.res.set("ladder.e2e_us_per_txn", e2e, 0)
	l.res.set("ladder.residual_frac", residual, 0)
	fmt.Fprintf(os.Stderr, "ladder %s: self us/txn: graph %.2f core %.2f ring %.2f store %.2f engine %.2f client %.2f serve %.2f\n",
		l.sp.Name, l.graphUS, coreSelf, l.ringUS, l.storeUS, engineSelf, l.clientUS-l.engineUS, math.Max(l.serveUS-l.clientUS, 0))
	if residual > ladderTolerance {
		l.res.note("ladder: self times sum to %.1fus, end-to-end is %.1fus: residual %.2f exceeds the %.2f tolerance", sum, e2e, residual, ladderTolerance)
	}
}
