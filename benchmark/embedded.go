package main

import (
	"errors"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/workload"
	"repro/txdel/client"
)

// clientConfig is the embedded door's client.Config for a workload.
func clientConfig(sp *spec, dataDir string) client.Config {
	cfg := client.Config{Shards: sp.Shards, Policy: sp.Policy,
		RetentionWatermark: sp.RetentionWatermark, FsyncBatch: sp.FsyncBatch}
	if sp.Durable {
		cfg.DataDir = dataDir
	}
	return cfg
}

// segGen chains generator segments into one endless stream. Each segment
// is a fresh workload.Gen (own seed, own TxnID range), so each starts its
// own straggler: the long reader recurs for the whole run.
type segGen struct {
	sp   *spec
	seed int64
	base model.TxnID
	seg  int64
	g    *workload.Gen
}

func newSegGen(sp *spec, seed int64, base model.TxnID) *segGen {
	s := &segGen{sp: sp, seed: seed, base: base}
	s.roll()
	return s
}

func (s *segGen) roll() {
	cfg := s.sp.Gen
	cfg.Seed = s.seed*1000003 + s.seg
	cfg.BaseTxnID = s.base + model.TxnID(s.seg<<20)
	cfg.Txns = s.sp.SegmentTxns
	s.g = workload.New(cfg)
	s.seg++
}

func (s *segGen) Next() model.Step {
	for {
		if st, ok := s.g.Next(); ok {
			return st
		}
		s.roll()
	}
}

// NotifyAbort forwards to the segment that issued id; an abort of an older
// segment's transaction (its tail steps were still in a batch) is moot.
func (s *segGen) NotifyAbort(id model.TxnID) {
	if int64(id-s.base)>>20 == s.seg-1 {
		s.g.NotifyAbort(id)
	}
}

// embDriver is one closed-loop goroutine on the embedded door: it submits
// its interleaved stream BatchSteps steps per DB.SubmitBatch, the way
// DB.Drive does, and reacts to rejections the way a session would.
type embDriver struct {
	sp    *spec
	db    *client.DB
	gen   *segGen
	tally tally
	began map[model.TxnID]int64 // live transaction → when its BEGIN was submitted
	genNS int64                 // time spent producing steps
	log   *spanLog
}

func abortErr(err error) bool {
	return errors.Is(err, client.ErrCycle) || errors.Is(err, client.ErrCrossCycle) ||
		errors.Is(err, client.ErrTxnAborted) || errors.Is(err, client.ErrStragglerAborted)
}

const latEvery = 8

// run submits batches until endNS (or maxTxns commits, for warm-up).
func (d *embDriver) run(startNS, endNS int64, maxTxns int64, lat *windows) {
	steps := make([]model.Step, 0, d.sp.BatchSteps)
	notified := map[model.TxnID]bool{}
	kBatch, kTxn := d.log.kind("client.submitbatch"), d.log.kind("txn")
	committed0 := d.tally.committed
	for {
		t0 := now()
		if t0 >= endNS || (maxTxns > 0 && d.tally.committed-committed0 >= maxTxns) {
			return
		}
		steps = steps[:0]
		for len(steps) < d.sp.BatchSteps {
			steps = append(steps, d.gen.Next())
		}
		t1 := now()
		d.genNS += t1 - t0
		results := d.db.SubmitBatch(steps)
		t2 := now()
		d.log.add(kBatch, int64(steps[0].Txn), 0, t1, t2)
		d.tally.steps += int64(len(steps))
		for i, r := range results {
			id := steps[i].Txn
			switch {
			case r.Err == nil:
				d.tally.accepted++
				if steps[i].Kind == model.KindBegin {
					d.tally.begun++
					d.began[id] = t1
				}
				if r.CompletedTxn == id {
					d.tally.committed++
					// One latency in latEvery is kept: at tens of thousands of
					// commits a second the samples would otherwise outweigh the
					// engine in this process's peak memory.
					if d.tally.committed%latEvery == 0 {
						lat.add(t2-startNS, float64(t2-d.began[id])/1e3)
					} else {
						lat.inPhase(t2 - startNS)
					}
					d.log.add(kTxn, int64(id), 0, d.began[id], t2)
					delete(d.began, id)
				}
			case abortErr(r.Err):
				if !notified[id] {
					notified[id] = true
					d.tally.aborted++
					d.gen.NotifyAbort(id)
					delete(d.began, id)
				}
			default:
				d.tally.failedOps++
			}
		}
		clear(notified)
	}
}

// runEmbedded is one run of the embedded workload: client.Open plus a
// fixed-count warm-up is the set-up, then two goroutines drive a closed
// loop for the whole measured time.
func runEmbedded(e *env, sp *spec, seed int64, seconds float64, traced bool) (*result, error) {
	res := newResult()
	if traced {
		res.log = newSpanLog()
	}
	setups := e.setups
	if traced {
		setups = 1
	}
	var db *client.DB
	var drv [drivers]*embDriver
	var setupS []float64
	for n := 0; n < setups; n++ {
		if db != nil {
			if err := db.Close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		db, err = client.Open(clientConfig(sp, ""))
		if err != nil {
			return nil, err
		}
		_ = db.Stats() // the first reply: every shard answered
		var wg sync.WaitGroup
		for i := range drv {
			drv[i] = &embDriver{sp: sp, db: db, began: map[model.TxnID]int64{},
				gen: newSegGen(sp, seed*16+int64(i), model.TxnID(i+1)<<40)}
			if traced {
				drv[i].log = newSpanLog()
			}
			wg.Add(1)
			go func(d *embDriver) {
				defer wg.Done()
				d.run(now(), math.MaxInt64, int64(sp.Warmup/drivers), newWindows(int64(time.Second), int64(time.Second)))
			}(drv[i])
		}
		wg.Wait()
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer db.Close()
	res.set("setup_s", median(setupS), int64(len(setupS)))

	var warm tally
	for _, d := range drv {
		warm.add(d.tally)
		d.genNS = 0
	}
	phaseNS := int64(seconds * 1e9)
	start := now()
	var lats [drivers]*windows
	var wg sync.WaitGroup
	for i, d := range drv {
		lats[i] = newWindows(int64(time.Second), phaseNS)
		wg.Add(1)
		go func(d *embDriver, lat *windows) {
			defer wg.Done()
			d.run(start, start+phaseNS, 0, lat)
		}(d, lats[i])
	}
	wg.Wait()
	wall := float64(now()-start) / 1e9

	lats[0].merge(lats[1])
	res.set("txn_p50_us", lats[0].bestDecile(0.50), lats[0].total()/latEvery)
	res.set("goodput_txn_s", float64(lats[0].total())/seconds, lats[0].total())
	// The engine lives in this process, so its peak memory is this
	// process's.
	res.set("rss_peak_mb", procStatusKB(os.Getpid(), "VmHWM")/1024, 0)

	var total tally
	var genNS int64
	for _, d := range drv {
		total.add(d.tally)
		genNS += d.genNS
		res.log.merge(d.log)
	}
	st := db.Stats()
	checkTally(res, total, &st)
	res.set("retained_avg", st.Merged.AvgKept()*float64(sp.Shards), st.Merged.KeptSample)
	res.attempted, res.failed = total.steps, total.failedOps
	if err := db.Close(); err != nil {
		res.problem("client.DB.Close: %v", err)
	}

	if traced {
		timed := total.committed - warm.committed
		res.set("e2e.txn_p95_us", lats[0].pooled(0.95), lats[0].total()/latEvery)
		res.set("e2e.txn_p99_us", lats[0].pooled(0.99), lats[0].total()/latEvery)
		res.set("e2e.retained_peak", float64(st.Merged.PeakKept), 0)
		res.set("e2e.failed_frac", ratio(total.failedOps, total.steps), total.steps)
		res.set("e2e.abort_frac", ratio(total.aborted, total.begun), total.begun)
		// What this door does not have (a latency limit, a disk, a wire) the
		// ladder reports as zero.
		// On this door the generator is the step producer inside the driver
		// goroutines: its share of their time is what it costs the run.
		frac := float64(genNS) / 1e9 / (wall * drivers)
		res.set("loadgen.cpu_frac", frac, timed)
		var depth int64
		for _, q := range st.QueueDepth {
			depth = max(depth, q)
		}
		res.set("engine.queue_depth_max", float64(depth), 0)
		res.set("engine.reaped", float64(st.Reaped), 0)
		res.set("engine.shed", float64(st.Shed), 0)
		if frac > 0.5 {
			res.note("invalid: step generation took %.2f of the drivers' time", frac)
		}
	}
	return res, nil
}
