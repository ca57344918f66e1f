package client

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/model"
)

// BenchmarkClientSubmitBatch drives 64-step batches through DB.SubmitBatch:
// sixteen partition-local transactions over four shards, interleaved (a
// BEGIN declaring two entities of the transaction's partition, a read of
// each, a final write of the first). The batches are built before the
// timer and renumbered in place, so what the loop allocates is the raw
// path's own: steady state, the engine allocates nothing for such a
// transaction, and what is left is the []Result a batch returns. It
// reports those bytes per step (B/step, gated as
// max_client_batch_bytes_per_step). The loop runs on one P: on two, the
// runtime now and then starts an OS thread for a GC worker inside it, and
// the thread's m, g0, signal g and profiling stacks, 5.5 KB of heap the
// loop never asked for, read as 36.03 B/step. With one P no thread is
// started, and every byte counted is one the loop's own code allocated.
func BenchmarkClientSubmitBatch(b *testing.B) {
	const shards, txns, perPart, templates = 4, 16, 1024, 64
	db, err := Open(Config{Shards: shards, Policy: "greedy-c1"})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(1))
	batches := make([][]model.Step, templates)
	ids := make([][]model.TxnID, templates) // each step's transaction in its batch, 1..txns
	for k := range batches {
		var plans [txns][]model.Step
		for j := range plans {
			id := model.TxnID(j + 1)
			x := model.Entity(j%shards + shards*rng.Intn(perPart-1))
			plans[j] = []model.Step{model.BeginDeclared(id, x, x+shards), model.Read(id, x), model.Read(id, x+shards), model.WriteFinal(id, x)}
		}
		for len(batches[k]) < 4*txns {
			if j := rng.Intn(txns); len(plans[j]) > 0 {
				batches[k] = append(batches[k], plans[j][0])
				ids[k] = append(ids[k], plans[j][0].Txn)
				plans[j] = plans[j][1:]
			}
		}
	}
	base := model.TxnID(0)
	batch := func(i int) {
		k := i % templates
		steps := batches[k]
		for s := range steps {
			steps[s].Txn = base + ids[k][s]
		}
		base += txns
		for _, r := range db.SubmitBatch(steps) {
			if !r.Accepted() {
				b.Fatalf("batch %d: %v", i, r.Err)
			}
		}
	}
	for i := 0; i < 16*templates; i++ {
		batch(i) // warm the pools, arenas and maps
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch(i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(b.N*4*txns), "B/step")
}
