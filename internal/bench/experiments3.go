// Experiment E13: telemetry engineering — what the non-blocking event bus
// costs the engine, and what its drop-on-overflow contract looks like when
// a sink cannot keep up.
package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/emit"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/workload"
)

// slowSink consumes events at a bounded rate, simulating a sink that has
// fallen behind (a stalled scrape, a slow disk). It forces the bus's
// overflow path: the ring fills and producers drop instead of blocking.
type slowSink struct {
	delay time.Duration
	n     int
}

func (s *slowSink) Consume(emit.Event) {
	s.n++
	time.Sleep(s.delay)
}

func (s *slowSink) Close() error { return nil }

// E13EmitTelemetry drives the same mixed local/cross workload through the
// sharded engine four ways — no emitter, a counting sink, the Prometheus
// metrics sink, and a deliberately slow sink behind a tiny ring — and
// reports throughput plus the bus's emitted/dropped accounting. The
// engineering claims under test: attaching telemetry costs the hot path
// nothing measurable, and a saturated bus sheds events (counted, visible)
// rather than applying backpressure to the scheduler.
func E13EmitTelemetry(cfg RunConfig) []*Table {
	const shards = 4
	txns := 30_000
	if cfg.Quick {
		txns = 2_000
	}

	type variant struct {
		name string
		ring int
		mk   func() emit.Sink // nil: no bus at all
	}
	variants := []variant{
		{"none", 0, nil},
		{"counting", emit.DefaultBuffer, func() emit.Sink { return &emit.CountingSink{} }},
		{"metrics", emit.DefaultBuffer, func() emit.Sink { return emit.NewMetricsSink() }},
		{"slow-sink/ring=64", 64, func() emit.Sink { return &slowSink{delay: 50 * time.Microsecond} }},
	}

	tab := &Table{
		ID:    "E13",
		Title: "Telemetry bus: emitter overhead and drop-on-overflow",
		Note: "4 shards, greedy-c1, 4 driver goroutines, CrossFrac=0.05; steps/s is accepted scheduler steps per second. " +
			"The bus never blocks the engine: a saturated ring drops events and counts them instead.",
		Columns: []string{"emitter", "steps/s", "completed", "emitted", "dropped", "drop %", "vs none"},
	}

	var baseline float64
	for _, v := range variants {
		var bus *emit.Bus
		if v.mk != nil {
			bus = emit.NewBus(v.ring, v.mk())
		}
		eng := engine.New(engine.Config{
			Shards: shards,
			Policy: func() core.Policy { return core.GreedyC1{} },
			Bus:    bus,
		})

		const drivers = 4
		start := time.Now()
		var wg sync.WaitGroup
		for d := 0; d < drivers; d++ {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				gen := workload.New(workload.Config{
					Entities:         1 << 12,
					Txns:             txns / drivers,
					MaxActive:        8,
					Shards:           shards,
					CrossFrac:        0.05,
					DeclareFootprint: true,
					BaseTxnID:        model.TxnID(d * 10_000_000),
					Seed:             cfg.Seed + int64(d),
				})
				steps := make([]model.Step, 0, 8)
				var results []engine.Result
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
					results = eng.SubmitBatchInto(results[:0], steps)
					for i, r := range results {
						if !r.Accepted() {
							gen.NotifyAbort(steps[i].Txn)
						}
					}
				}
			}(d)
		}
		wg.Wait()
		elapsed := time.Since(start)
		st := eng.Stats()
		eng.Close()

		stepsPerSec := float64(st.Accepted) / elapsed.Seconds()
		var emitted, dropped uint64
		if bus != nil {
			bus.Close()
			emitted, dropped = bus.Emitted(), bus.Dropped()
		}
		if v.mk == nil {
			baseline = stepsPerSec
		}
		rel := "1.00x"
		if v.mk != nil && baseline > 0 {
			rel = fmt.Sprintf("%.2fx", stepsPerSec/baseline)
		}
		dropPct := "0.00"
		if emitted+dropped > 0 {
			dropPct = fmt.Sprintf("%.2f", float64(dropped)*100/float64(emitted+dropped))
		}
		tab.AddRow(v.name, int64(stepsPerSec), st.Completed, emitted, dropped, dropPct, rel)
		cfg.logf("E13 %s: %.0f steps/s, %d emitted, %d dropped (%s)",
			v.name, stepsPerSec, emitted, dropped, elapsed)
	}
	return []*Table{tab}
}
