package engine

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/emit"
	"repro/internal/model"
	"repro/internal/store"
	"repro/internal/workload"
)

// BenchmarkEngineThroughput sweeps shard count × deletion policy under
// partition-local traffic from GOMAXPROCS submitter goroutines. Each
// iteration is one whole transaction (BEGIN + 3 reads + final write = 5
// steps) pipelined through SubmitBatchInto — one shard visit per
// transaction, the way a real client session drives the engine; steps/s
// is reported as a metric. Under nogc the per-shard graphs grow without
// bound, so sharding pays even on one core (smaller graphs → cheaper
// conflict checks); with a GC policy the graphs stay small and the
// benchmark measures the engine's plumbing overhead instead. Regenerate
// BENCH_engine.json with:
//
//	go test -run '^$' -bench BenchmarkEngineThroughput -benchtime 3000x -benchmem ./internal/engine/
func BenchmarkEngineThroughput(b *testing.B) {
	const entities = 1 << 12
	policies := []struct {
		name    string
		factory func() core.Policy
	}{
		{"nogc", nil},
		{"greedy-c1", func() core.Policy { return core.GreedyC1{} }},
		{"lemma1", func() core.Policy { return core.Lemma1Policy{} }},
	}
	for _, shards := range []int{1, 2, 4, 8} {
		for _, pol := range policies {
			b.Run(fmt.Sprintf("shards=%d/policy=%s", shards, pol.name), func(b *testing.B) {
				eng := New(Config{Shards: shards, Policy: pol.factory})
				defer eng.Close()
				var nextID atomic.Int64
				perPart := entities / shards
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					rng := rand.New(rand.NewSource(nextID.Add(1)))
					fp := make([]model.Entity, 4)
					steps := make([]model.Step, 0, 5)
					results := make([]Result, 0, 5)
					for pb.Next() {
						id := model.TxnID(nextID.Add(1))
						p := rng.Intn(shards)
						for i := range fp {
							fp[i] = model.Entity(p + shards*rng.Intn(perPart))
						}
						steps = append(steps[:0], model.BeginDeclared(id, fp...))
						for _, x := range fp[:3] {
							steps = append(steps, model.Read(id, x))
						}
						steps = append(steps, model.WriteFinal(id, fp[3]))
						results = eng.SubmitBatchInto(results[:0], steps)
					}
				})
				b.StopTimer()
				b.ReportMetric(float64(b.N)*5/b.Elapsed().Seconds(), "steps/s")
			})
		}
	}
}

// BenchmarkEngineBatchInterleaved is the batch door's fan-out: one
// goroutine sends 64-step seeded batches, each sixteen partition-local
// transactions interleaved over four shards (interleavedBatch), through
// SubmitBatchInto. roundtrips/batch counts shard visits (runs) through the
// test hook: one per shard a window touches, so at most 4 here, where a
// door that waited out every same-shard run paid 47.94. parks/batch counts
// the times the submitter blocked on a shard lock held elsewhere: a lone
// submitter finds every lock free, so it never blocks (with a goroutine per
// shard it slept waiting for a reply 0.34–0.67 times per batch). Both
// counts are deterministic, and scripts/check_bench_budget.sh gates them at
// max_batch_roundtrips_per_batch and max_parks_per_batch.
// Regenerate the BENCH_engine.json record with:
//
//	go test -run '^$' -bench BenchmarkEngineBatchInterleaved -benchtime 3000x -benchmem ./internal/engine/
func BenchmarkEngineBatchInterleaved(b *testing.B) {
	var trips, parks atomic.Int64
	testHookRoundTrip = func(*shard) { trips.Add(1) }
	testHookPark = func() { parks.Add(1) }
	defer func() { testHookRoundTrip, testHookPark = nil, nil }()
	eng := New(Config{Shards: 4, Policy: func() core.Policy { return core.GreedyC1{} }})
	defer eng.Close()
	// Sixteen batch shapes, renumbered per iteration so every ID is fresh.
	rng := rand.New(rand.NewSource(7))
	var shapes [16][]model.Step
	for i := range shapes {
		shapes[i] = interleavedBatch(rng, 0, 0)
	}
	steps := make([]model.Step, 64)
	results := make([]Result, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	trips.Store(0)
	parks.Store(0)
	for i := 0; i < b.N; i++ {
		for k, st := range shapes[i%len(shapes)] {
			st.Txn += model.TxnID(16 * i)
			steps[k] = st
		}
		results = eng.SubmitBatchInto(results[:0], steps)
	}
	b.StopTimer()
	b.ReportMetric(float64(trips.Load())/float64(b.N), "roundtrips/batch")
	b.ReportMetric(float64(parks.Load())/float64(b.N), "parks/batch")
	b.ReportMetric(float64(b.N)*64/b.Elapsed().Seconds(), "steps/s")
}

// BenchmarkEngineBatchCross is BenchmarkEngineBatchInterleaved with two of
// the sixteen transactions in each 64-step batch cross-partition (two
// shards each, on entities no other transaction touches). It reports
// roundtrips/batch, every shard visit the submitting goroutine makes
// (windows, sub-begins, prepares, commits), and windows/batch, the
// windows the batch door sends. Each cross BEGIN, each cross read bound for
// a second shard and each final write of a cross transaction ends a window;
// the cross reads themselves ride in one. Both counts are deterministic, and
// scripts/check_bench_budget.sh gates windows/batch at
// max_cross_batch_windows_per_batch. Regenerate the BENCH_engine.json
// record with:
//
//	go test -run '^$' -bench BenchmarkEngineBatchCross -benchtime 3000x -benchmem ./internal/engine/
func BenchmarkEngineBatchCross(b *testing.B) {
	var trips, windows atomic.Int64
	testHookRoundTrip = func(*shard) { trips.Add(1) }
	testHookWindow = func() { windows.Add(1) }
	defer func() { testHookRoundTrip, testHookWindow = nil, nil }()
	eng := New(Config{Shards: 4, Policy: func() core.Policy { return core.GreedyC1{} }})
	defer eng.Close()
	rng := rand.New(rand.NewSource(7))
	var shapes [16][]model.Step
	for i := range shapes {
		shapes[i] = interleavedBatch(rng, 0, 2)
	}
	steps := make([]model.Step, 64)
	results := make([]Result, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	trips.Store(0)
	windows.Store(0)
	for i := 0; i < b.N; i++ {
		for k, st := range shapes[i%len(shapes)] {
			st.Txn += model.TxnID(16 * i)
			steps[k] = st
		}
		results = eng.SubmitBatchInto(results[:0], steps)
	}
	b.StopTimer()
	b.ReportMetric(float64(trips.Load())/float64(b.N), "roundtrips/batch")
	b.ReportMetric(float64(windows.Load())/float64(b.N), "windows/batch")
	b.ReportMetric(float64(b.N)*64/b.Elapsed().Seconds(), "steps/s")
}

// BenchmarkEngineEmitOverhead measures what attaching the telemetry bus
// costs the hot path: the same partition-local workload as
// BenchmarkEngineThroughput (4 shards, greedy-c1, whole transactions through
// SubmitBatchInto) run once without an emitter and once publishing every
// lifecycle event to a live bus draining into a CountingSink. The on
// variant reports events/txn, every Emit call (published or dropped) per
// transaction. scripts/check_bench_budget.sh gates that count at
// max_emit_events_per_txn, holds the emitter=on variant to the same
// allocs/op budget as the bare path — Emit must stay allocation-free — and
// prints the paired on-off ns/op delta without gating it.
// Regenerate the BENCH_engine.json record with:
//
//	go test -run '^$' -bench BenchmarkEngineEmitOverhead -benchtime 10000x -benchmem ./internal/engine/
func BenchmarkEngineEmitOverhead(b *testing.B) {
	const entities = 1 << 12
	const shards = 4
	run := func(b *testing.B, bus *emit.Bus) {
		eng := New(Config{Shards: shards, Policy: func() core.Policy { return core.GreedyC1{} }, Bus: bus})
		defer eng.Close()
		var nextID atomic.Int64
		perPart := entities / shards
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewSource(nextID.Add(1)))
			fp := make([]model.Entity, 4)
			steps := make([]model.Step, 0, 5)
			results := make([]Result, 0, 5)
			for pb.Next() {
				id := model.TxnID(nextID.Add(1))
				p := rng.Intn(shards)
				for i := range fp {
					fp[i] = model.Entity(p + shards*rng.Intn(perPart))
				}
				steps = append(steps[:0], model.BeginDeclared(id, fp...))
				for _, x := range fp[:3] {
					steps = append(steps, model.Read(id, x))
				}
				steps = append(steps, model.WriteFinal(id, fp[3]))
				results = eng.SubmitBatchInto(results[:0], steps)
			}
		})
		b.StopTimer()
		b.ReportMetric(float64(b.N)*5/b.Elapsed().Seconds(), "steps/s")
	}
	b.Run("emitter=off", func(b *testing.B) { run(b, nil) })
	b.Run("emitter=on", func(b *testing.B) {
		var sink emit.CountingSink
		bus := emit.NewBus(emit.DefaultBuffer, &sink)
		defer bus.Close()
		run(b, bus)
		b.ReportMetric(float64(bus.Emitted()+bus.Dropped())/float64(b.N), "events/txn")
	})
}

// BenchmarkEngineRetentionGoverned drives the adversarial leak family
// (sleepers, label bombs, cross fan-out, respawning attackers — see
// workload.Adversary) against a governed engine and reports peak-kept, the
// highest engine-wide retained count ever sampled. Each iteration is one
// victim transaction; the governor runs once per chunk, exactly like the
// soak test. scripts/check_bench_budget.sh gates peak-kept at
// max_peak_kept: a regression here means the governor stopped bounding
// retention under attack, the one property this subsystem exists for.
// Regenerate the BENCH_engine.json record with:
//
//	go test -run '^$' -bench BenchmarkEngineRetentionGoverned -benchtime 2000x -benchmem ./internal/engine/
func BenchmarkEngineRetentionGoverned(b *testing.B) {
	const shards = 4
	const chunk = 64
	const watermark = 64
	eng := New(Config{
		Shards: shards,
		Policy: func() core.Policy { return core.GreedyC1{} }, // no RetentionWatermark: paced explicitly, once per chunk
	})
	defer eng.Close()
	adv := workload.NewAdversary(workload.AdversaryConfig{
		Shards:        shards,
		Victims:       b.N,
		Sleepers:      2,
		CrossSleepers: 2,
		FanOutFrac:    0.25,
		Respawn:       true,
		BaseTxnID:     1,
		Seed:          7,
	})
	var peak, steps int64
	buf := make([]model.Step, 0, chunk)
	results := make([]Result, 0, chunk)
	notified := make(map[model.TxnID]bool)
	b.ReportAllocs()
	b.ResetTimer()
	for {
		buf = buf[:0]
		for len(buf) < chunk {
			st, ok := adv.Next()
			if !ok {
				break
			}
			buf = append(buf, st)
		}
		if len(buf) == 0 {
			break
		}
		steps += int64(len(buf))
		results = eng.SubmitBatchInto(results[:0], buf)
		for _, r := range results {
			if r.Aborted != model.NoTxn && !notified[r.Aborted] {
				notified[r.Aborted] = true
				adv.NotifyAbort(r.Aborted)
			}
		}
		eng.govern(watermark)
		var total int64
		for _, n := range eng.Gauges().Retained {
			total += n
		}
		if total > peak {
			peak = total
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(peak), "peak-kept")
	b.ReportMetric(float64(eng.Stats().Reaped), "reaps")
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
}

// BenchmarkEngineCrossFrac measures the cost of the cross-partition path:
// fixed 4 shards, greedy-c1, sweeping the cross-partition fraction
// (CrossFrac ∈ {0, 0.01, 0.05, 0.25}). Under the pre-2PC stop-the-world
// coordinator, completed/op collapsed as cross traffic rose (every cross
// commit killed all concurrent actives); under 2PC no bystander is ever
// killed and completions stay at 1.0/op. Regenerate the
// BENCH_engine.json record with:
//
//	go test -run '^$' -bench BenchmarkEngineCrossFrac -benchtime 30000x -benchmem -cpu 8 ./internal/engine/
func BenchmarkEngineCrossFrac(b *testing.B) {
	const entities = 1 << 12
	const shards = 4
	for _, crossPct := range []int{0, 1, 5, 25} {
		b.Run(fmt.Sprintf("cross=%d%%", crossPct), func(b *testing.B) {
			eng := New(Config{Shards: shards, Policy: func() core.Policy { return core.GreedyC1{} }})
			defer eng.Close()
			var nextID atomic.Int64
			perPart := entities / shards
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(nextID.Add(1)))
				for pb.Next() {
					id := model.TxnID(nextID.Add(1))
					p := rng.Intn(shards)
					x := model.Entity(p + shards*rng.Intn(perPart))
					fp := []model.Entity{x}
					if crossPct > 0 && rng.Intn(100) < crossPct {
						q := (p + 1) % shards
						fp = append(fp, model.Entity(q+shards*rng.Intn(perPart)))
					}
					submit(eng, model.BeginDeclared(id, fp...))
					for _, e := range fp {
						submit(eng, model.Read(id, e))
					}
					submit(eng, model.WriteFinal(id, fp[0]))
				}
			})
			b.StopTimer()
			s := eng.Stats()
			b.ReportMetric(float64(s.Prepares)/float64(b.N), "prepares/op")
			b.ReportMetric(float64(s.Completed)/float64(b.N), "completed/op")
		})
	}
}

// BenchmarkCrossTxnAllocs counts what one cross-partition transaction
// allocates from BEGIN to commit: a BEGIN declaring one entity on each of
// two or four shards, one read, and the final write of the whole footprint
// (the two-phase commit), one step at a time on a 4-shard greedy-c1 engine
// with nothing else running. allocs/op is per transaction, a count fixed by
// the code: scripts/check_bench_budget.sh gates it exactly at
// max_cross_txn_allocs_2 and max_cross_txn_allocs_4.
//
//	go test -run '^$' -bench BenchmarkCrossTxnAllocs -benchtime 2000x -benchmem ./internal/engine/
func BenchmarkCrossTxnAllocs(b *testing.B) {
	for _, parts := range []int{2, 4} {
		b.Run(fmt.Sprintf("parts=%d", parts), func(b *testing.B) {
			eng := New(Config{Shards: 4, Policy: func() core.Policy { return core.GreedyC1{} }})
			defer eng.Close()
			fp := make([]model.Entity, parts)
			for i := range fp {
				fp[i] = model.Entity(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := model.TxnID(i + 1)
				submit(eng, model.BeginDeclared(id, fp...))
				submit(eng, model.Read(id, fp[1]))
				if res := submit(eng, model.WriteFinal(id, fp...)); res.CompletedTxn != id {
					b.Fatalf("T%d: %v (%v)", id, res.Outcome(), res.Err)
				}
			}
		})
	}
}

// BenchmarkEngineWALOverhead measures what crash durability costs the hot
// path: the same partition-local workload as BenchmarkEngineThroughput
// (4 shards, greedy-c1, whole transactions through SubmitBatchInto) run
// once without a store and once journaling every accepted step to a
// per-shard file WAL, sweeping the fsync batch (1 = strict, every record
// durable before its ack; 64 = default; 256 = throughput-oriented).
// scripts/check_bench_budget.sh gates the ns/op delta of the default
// wal=on-fsync=64 variant against wal=off (median of paired runs) at
// max_wal_overhead_ns. Regenerate the
// BENCH_engine.json record with:
//
//	go test -run '^$' -bench BenchmarkEngineWALOverhead -benchtime 10000x -benchmem ./internal/engine/
func BenchmarkEngineWALOverhead(b *testing.B) {
	const entities = 1 << 12
	const shards = 4
	run := func(b *testing.B, st store.Store, syncEvery int) {
		eng, _, err := Open(Config{
			Shards:       shards,
			Policy:       func() core.Policy { return core.GreedyC1{} },
			Store:        st,
			WALSyncEvery: syncEvery,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		var nextID atomic.Int64
		perPart := entities / shards
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewSource(nextID.Add(1)))
			fp := make([]model.Entity, 4)
			steps := make([]model.Step, 0, 5)
			results := make([]Result, 0, 5)
			for pb.Next() {
				id := model.TxnID(nextID.Add(1))
				p := rng.Intn(shards)
				for i := range fp {
					fp[i] = model.Entity(p + shards*rng.Intn(perPart))
				}
				steps = append(steps[:0], model.BeginDeclared(id, fp...))
				for _, x := range fp[:3] {
					steps = append(steps, model.Read(id, x))
				}
				steps = append(steps, model.WriteFinal(id, fp[3]))
				results = eng.SubmitBatchInto(results[:0], steps)
			}
		})
		b.StopTimer()
		b.ReportMetric(float64(b.N)*5/b.Elapsed().Seconds(), "steps/s")
	}
	b.Run("wal=off", func(b *testing.B) { run(b, nil, 0) })
	for _, batch := range []int{1, 64, 256} {
		b.Run(fmt.Sprintf("wal=on-fsync=%d", batch), func(b *testing.B) {
			st, err := store.OpenFile(b.TempDir(), shards, store.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			run(b, st, batch)
		})
	}
}

// latHist is a fixed log-linear latency histogram: 16 sub-buckets per
// octave, so any sample lands within 1/16 of its true value and recording
// is two shifts and an increment — no allocation, no sorting, safe to keep
// per-goroutine and merge under a mutex at the end. This is what lets the
// scaling benchmark report p99 without perturbing the path it measures.
const latBuckets = 61 * 16

type latHist [latBuckets]int64

func (h *latHist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	if v < 16 {
		h[v]++
		return
	}
	l := bits.Len64(v)
	h[(l-4)*16+int((v>>(l-5))&15)]++
}

func (h *latHist) merge(o *latHist) {
	for i, n := range o {
		h[i] += n
	}
}

// quantile returns the lower bound of the bucket holding the q-th sample
// (0 < q <= 1), i.e. a value the true quantile is guaranteed to be >= and
// within 1/16 of.
func (h *latHist) quantile(q float64) int64 {
	var total int64
	for _, n := range h {
		total += n
	}
	if total == 0 {
		return 0
	}
	want := int64(q * float64(total))
	if want < 1 {
		want = 1
	}
	var cum int64
	for i, n := range h {
		cum += n
		if cum >= want {
			if i < 16 {
				return int64(i)
			}
			return int64(16+i%16) << (i/16 - 1)
		}
	}
	return 1 << 62 // unreachable: every recorded sample lands in a bucket
}

// BenchmarkEngineParallelScaling is the multi-core scaling story: fixed 8
// shards, greedy-c1, GOMAXPROCS submitter goroutines pipelining whole
// 5-step transactions through SubmitBatchInto, at CrossFrac 0 (pure
// partition-local) and 0.05 (the oracle suite's canonical mix). Run it
// with -cpu 1,2,4,8 and compare steps/s across the sweep: the submission
// path has no global lock, only one per shard, so throughput should rise
// with cores until the shards saturate. Each iteration's
// SubmitBatchInto round-trip is timed into a log-linear histogram
// (per-goroutine, merged at the end — nothing allocated per op) and the
// p99 per-step latency (txn round-trip / 5 steps) is reported as
// p99-step-ns, which scripts/check_bench_budget.sh gates at
// max_p99_step_ns. cores records GOMAXPROCS for the BENCH_engine.json
// record — on a single-core host the -cpu sweep measures oversubscription
// scheduling, not parallelism; record physical_cores alongside.
// Regenerate the BENCH_engine.json record with:
//
//	go test -run '^$' -bench BenchmarkEngineParallelScaling -benchtime 20000x -benchmem -cpu 1,2,4,8 ./internal/engine/
func BenchmarkEngineParallelScaling(b *testing.B) {
	const entities = 1 << 12
	const shards = 8
	for _, crossPct := range []int{0, 5} {
		b.Run(fmt.Sprintf("cross=%d%%", crossPct), func(b *testing.B) {
			eng := New(Config{Shards: shards, Policy: func() core.Policy { return core.GreedyC1{} }})
			defer eng.Close()
			var nextID atomic.Int64
			var mu sync.Mutex
			var hist latHist
			perPart := entities / shards
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(nextID.Add(1)))
				fp := make([]model.Entity, 0, 5)
				steps := make([]model.Step, 0, 6)
				results := make([]Result, 0, 6)
				var local latHist
				for pb.Next() {
					id := model.TxnID(nextID.Add(1))
					p := rng.Intn(shards)
					fp = fp[:0]
					for i := 0; i < 4; i++ {
						fp = append(fp, model.Entity(p+shards*rng.Intn(perPart)))
					}
					if crossPct > 0 && rng.Intn(100) < crossPct {
						q := (p + 1) % shards
						fp = append(fp, model.Entity(q+shards*rng.Intn(perPart)))
					}
					steps = append(steps[:0], model.BeginDeclared(id, fp...))
					for _, x := range fp[1:] {
						steps = append(steps, model.Read(id, x))
					}
					steps = append(steps, model.WriteFinal(id, fp[0]))
					t0 := time.Now()
					results = eng.SubmitBatchInto(results[:0], steps)
					local.record(time.Since(t0).Nanoseconds())
				}
				mu.Lock()
				hist.merge(&local)
				mu.Unlock()
			})
			b.StopTimer()
			nSteps := float64(b.N) * 5
			b.ReportMetric(nSteps/b.Elapsed().Seconds(), "steps/s")
			b.ReportMetric(float64(hist.quantile(0.50))/5, "p50-step-ns")
			b.ReportMetric(float64(hist.quantile(0.99))/5, "p99-step-ns")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
		})
	}
}
