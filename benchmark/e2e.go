package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
)

// env is where a run may write: workDir holds the server binary and data
// directories, outDir the result file and span logs.
type env struct {
	root      string
	workDir   string
	outDir    string
	serverBin string
	// setups is how many times a traced-off run sets the system up: the
	// reported set-up time is the median, the last instance is the one
	// measured.
	setups int
	dirSeq int
}

func (e *env) newDir(prefix string) (string, error) {
	e.dirSeq++
	d := filepath.Join(e.workDir, fmt.Sprintf("%s-%d-%d", prefix, os.Getpid(), e.dirSeq))
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o777)
}

// result is what one run of one workload reports.
type result struct {
	metrics   map[string]float64
	samples   map[string]int64 // sample count behind a timing
	attempted int64
	failed    int64
	problems  []string // output checks that did not hold
	notes     []string // validity warnings: reported, not fatal
	log       *spanLog
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, samples: map[string]int64{}}
}

func (r *result) set(name string, v float64, n int64) {
	r.metrics[name] = v
	if n > 0 {
		r.samples[name] = n
	}
}

func (r *result) problem(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

func (r *result) note(format string, a ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, a...))
}

// tcpRig is one live server with its two driven connections.
type tcpRig struct {
	srv     *server
	dataDir string
	drv     [drivers]*connDriver
}

func (rig *tcpRig) close() {
	for _, d := range rig.drv {
		if d != nil {
			d.wc.close()
		}
	}
	if rig.srv != nil {
		rig.srv.stop()
	}
}

// runBoth runs one phase per connection concurrently, one goroutine each.
func (rig *tcpRig) runBoth(mk func(i int) *phase) ([drivers]*phase, error) {
	var phs [drivers]*phase
	var errs [drivers]error
	var wg sync.WaitGroup
	for i := range rig.drv {
		phs[i] = mk(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = rig.drv[i].run(phs[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return phs, err
		}
	}
	return phs, nil
}

// setupTCP spawns the server, opens both connections (the hello reply is
// the first reply) and runs the fixed-count warm-up, returning the rig
// and how long all of that took.
func setupTCP(e *env, sp *spec, seed int64, log *spanLog) (*tcpRig, float64, error) {
	rig := &tcpRig{}
	if sp.Durable {
		d, err := e.newDir("data")
		if err != nil {
			return nil, 0, err
		}
		rig.dataDir = d
	}
	t0 := time.Now()
	srv, err := startServer(e.serverBin, serverArgs(sp, rig.dataDir))
	if err != nil {
		return nil, 0, err
	}
	rig.srv = srv
	for i := range rig.drv {
		wc, err := dialWire(srv.addr)
		if err != nil {
			rig.close()
			return nil, 0, err
		}
		src := newTxnSource(sp, seed*16+int64(i), model.TxnID(i+1)<<40)
		var l *spanLog
		if log != nil {
			l = newSpanLog()
		}
		rig.drv[i] = newConnDriver(sp, wc, src, l)
	}
	_, err = rig.runBoth(func(i int) *phase {
		return &phase{depth: sp.InFlight, maxTxns: sp.Warmup / drivers,
			startNS: now(), endNS: math.MaxInt64, lat: newWindows(int64(time.Second), int64(time.Second))}
	})
	if err != nil {
		rig.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return rig, time.Since(t0).Seconds(), nil
}

// openWindow is the open-loop window length: at least half a second and
// long enough for a few hundred arrivals, so a window's median is settled.
func openWindow(rate float64) int64 {
	return max(int64(300/rate*1e9), int64(time.Second)/2)
}

// runTCP is one run of a TCP workload: set-up, an open-loop phase, a
// saturation phase, the output checks and, with a data dir, the kill -9
// with its timed restart and the truncation pass.
func runTCP(e *env, sp *spec, seed int64, seconds float64, traced bool) (*result, error) {
	res := newResult()
	if traced {
		res.log = newSpanLog()
	}
	setups := e.setups
	if traced {
		setups = 1
	}
	var rig *tcpRig
	var setupS []float64
	discard := func() {
		rig.close()
		if rig.dataDir != "" {
			os.RemoveAll(rig.dataDir)
		}
	}
	for i := 0; i < setups; i++ {
		if rig != nil {
			discard()
		}
		var s float64
		var err error
		rig, s, err = setupTCP(e, sp, seed, res.log)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, s)
	}
	defer discard()
	res.set("setup_s", median(setupS), int64(len(setupS)))

	pid := rig.srv.pid()
	io0, cpu0, self0 := procWriteBytes(pid), procCPUSeconds(pid), procCPUSeconds(os.Getpid())
	var warm tally
	for _, d := range rig.drv {
		warm.add(d.tally)
	}

	// Open loop: arrivals on a fixed schedule, alternating connections.
	phaseNS := int64(seconds / 2 * 1e9)
	interval := int64(float64(drivers) / sp.OpenRate * 1e9)
	start := now() + int64(5*time.Millisecond)
	open, err := rig.runBoth(func(i int) *phase {
		return &phase{open: true, startNS: start, endNS: start + phaseNS,
			interval: interval, offset: int64(i) * interval / drivers,
			lat: newWindows(openWindow(sp.OpenRate), phaseNS)}
	})
	if err != nil {
		return nil, fmt.Errorf("open loop: %w", err)
	}
	openWall, self1 := float64(now()-start)/1e9, procCPUSeconds(os.Getpid())
	// Saturation: closed loop, a fixed number of transactions in flight.
	start = now()
	sat, err := rig.runBoth(func(i int) *phase {
		return &phase{depth: sp.InFlight, startNS: start, endNS: start + phaseNS,
			lat: newWindows(phaseNS, phaseNS)}
	})
	if err != nil {
		return nil, fmt.Errorf("saturation: %w", err)
	}
	io1, cpu1 := procWriteBytes(pid), procCPUSeconds(pid)

	open[0].lat.merge(open[1].lat)
	sat[0].lat.merge(sat[1].lat)
	res.set("txn_p50_us", open[0].lat.bestDecile(0.50), open[0].lat.total())
	res.set("goodput_txn_s", float64(sat[0].lat.total())/(float64(phaseNS)/1e9), sat[0].lat.total())
	res.set("rss_peak_mb", procStatusKB(pid, "VmHWM")/1024, 0)

	var total tally
	var bytesIn, bytesOut int64
	for _, d := range rig.drv {
		total.add(d.tally)
		bytesIn += d.wc.bytesOut // the server's input is what the generator wrote
		bytesOut += d.wc.bytesIn
		res.log.merge(d.log)
	}
	timedCommitted := float64(total.committed - warm.committed)

	var probes []probe
	if sp.Durable {
		probes, err = plantProbes(rig.drv[0], sp)
		if err != nil {
			return nil, fmt.Errorf("durability probes: %w", err)
		}
		total.add(probeTally(probes, sp))
	}

	// Output check: what the generator saw must equal what the server
	// counted.
	st, err := rig.drv[0].wc.statsOp()
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	checkTally(res, total, st)
	res.set("retained_avg", st.Merged.AvgKept()*float64(sp.Shards), st.Merged.KeptSample)
	res.attempted, res.failed = total.steps, total.failedOps

	// The generator vouches for its own timing. The host's freezes make some
	// arrivals late in every run (that is the lag p99, reported as it is); a
	// generator that is late half the time, or that takes most of a core from
	// the server, measured itself. A loopback round-trip costs the client
	// about 40 µs of CPU on this host, so 12500 ops/s is half a core.
	lag := append(open[0].lagUS, open[1].lagUS...)
	sort.Float64s(lag)
	lagP50, lagP99 := quantile(lag, 0.50), quantile(lag, 0.99)
	cpuFrac := (self1 - self0) / openWall
	if lagP50 > sp.LimitUS/10 {
		res.note("invalid: generator lag p50 %.0fus exceeds a tenth of the %.0fus limit", lagP50, sp.LimitUS)
	}
	if cpuFrac > 0.75 {
		res.note("invalid: the open-loop generator used %.2f of a core", cpuFrac)
	}

	recoveryS, lost := 0.0, int64(0)
	if sp.Durable {
		recoveryS, lost, err = killAndRecover(e, sp, rig, probes)
		if err != nil {
			return nil, fmt.Errorf("kill and recover: %w", err)
		}
		truncLost, err := truncationPass(e, sp)
		if err != nil {
			return nil, fmt.Errorf("truncation pass: %w", err)
		}
		if lost += truncLost; lost > 0 {
			res.problem("%d acknowledged commits did not survive the crash checks", lost)
			res.failed += lost
		}
	}

	if traced {
		res.set("e2e.txn_p95_us", open[0].lat.pooled(0.95), open[0].lat.total())
		res.set("e2e.txn_p99_us", open[0].lat.pooled(0.99), open[0].lat.total())
		res.set("e2e.retained_peak", float64(st.Merged.PeakKept), 0)
		res.set("e2e.slo_miss_frac", ratio(total.sloMiss, total.openTxns), total.openTxns)
		res.set("e2e.failed_frac", ratio(total.failedOps, total.steps), total.steps)
		res.set("e2e.abort_frac", ratio(total.aborted, total.begun), total.begun)
		res.set("e2e.disk_bytes_per_txn", (io1-io0)/math.Max(timedCommitted, 1), int64(timedCommitted))
		res.set("e2e.recovery_s", recoveryS, 0)
		res.set("e2e.acked_lost", float64(lost), int64(len(probes)))
		res.set("serve.bytes_in_per_txn", float64(bytesIn)/float64(max(total.begun, 1)), total.begun)
		res.set("serve.bytes_out_per_txn", float64(bytesOut)/float64(max(total.begun, 1)), total.begun)
		res.set("serve.cpu_us_per_txn", (cpu1-cpu0)*1e6/math.Max(timedCommitted, 1), int64(timedCommitted))
		res.set("loadgen.lag_p99_us", lagP99, int64(len(lag)))
		res.set("loadgen.cpu_frac", cpuFrac, 0)
		res.set("engine.queue_depth_max", float64(max(rig.drv[0].depthMax, rig.drv[1].depthMax)), 0)
	}
	return res, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// checkTally compares the generator's tally with the engine's counters.
func checkTally(res *result, t tally, st *engine.Stats) {
	if t.steps != st.Submitted {
		res.problem("tally: generator submitted %d steps, server counted %d", t.steps, st.Submitted)
	}
	if t.accepted != st.Accepted {
		res.problem("tally: generator saw %d accepted steps, server counted %d", t.accepted, st.Accepted)
	}
	if t.committed != st.Completed {
		res.problem("tally: generator saw %d commits, server counted %d", t.committed, st.Completed)
	}
	if t.failedOps > 0 {
		res.problem("%d operations failed for a reason the user did not cause", t.failedOps)
	}
}
