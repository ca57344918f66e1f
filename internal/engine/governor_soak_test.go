package engine

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// The chaos soak: drive the full adversarial leak family (sleepers,
// label-chain bombs, cross fan-out victims, respawning attackers) against
// the engine and sample the engine-wide retained count after every chunk.
//
//   - Governor ON, one pass per chunk: every sample must stay under
//     watermark + one chunk — the governor's SLO. An innocent PriorityHigh
//     long-runner rides along for the entire attack and must survive to
//     commit.
//   - Governor ON, the engine's own trigger: the same, one chunk looser
//     (see TestSoakBoundedRetentionSelfTriggered).
//   - Governor OFF: the same attack leaks without bound — samples grow
//     monotonically past the watermark, which is the control arm proving
//     the suite actually manufactures retention (a self-healing adversary
//     would pass the ON arms vacuously).
//
// CI runs this in short mode under -race (the `soak` job).

const (
	soakShards    = 4
	soakChunk     = 64
	soakWatermark = 32
	// highID is the innocent PriorityHigh long-runner; its entity is far
	// above the adversary's trap range so the only interaction with the
	// attack is through the governor's selection policy.
	soakHighID     = model.TxnID(1) << 40
	soakHighEntity = model.Entity(1) << 30 // partition 0
)

// soakVictims scales the attack length to the -short flag.
func soakVictims(t *testing.T) int {
	if testing.Short() {
		return 300
	}
	return 2000
}

// soakArm is how runSoak governs the engine.
type soakArm int

const (
	soakOff    soakArm = iota // no governor
	soakManual                // govern(soakWatermark) after every chunk
	soakAuto                  // Config.RetentionWatermark: the engine's own trigger
)

// runSoak drives the adversary against a fresh engine in chunks of
// soakChunk steps, governing it as arm says and sampling retained counts
// after each chunk. It begins the PriorityHigh long-runner first — oldest
// active in the system, the governor's most tempting victim — and asserts
// it still commits after the attack ends.
func runSoak(t *testing.T, arm soakArm) (samples []int64, st Stats) {
	t.Helper()
	cfg := Config{
		Shards: soakShards,
		Policy: func() core.Policy { return core.GreedyC1{} },
	}
	if arm == soakAuto {
		cfg.RetentionWatermark = soakWatermark
	}
	eng := New(cfg)
	defer eng.Close()

	if res := eng.SubmitPriority(context.Background(), model.BeginDeclared(soakHighID, soakHighEntity), PriorityHigh); !res.Accepted() {
		t.Fatalf("high-priority begin: %v (%v)", res.Outcome(), res.Err)
	}

	adv := workload.NewAdversary(workload.AdversaryConfig{
		Shards:        soakShards,
		Victims:       soakVictims(t),
		Sleepers:      2,
		CrossSleepers: 2,
		FanOutFrac:    0.25,
		Respawn:       true,
		BaseTxnID:     1,
		Seed:          7,
	})

	steps := make([]model.Step, 0, soakChunk)
	results := make([]Result, 0, soakChunk)
	notified := make(map[model.TxnID]bool)
	for {
		steps = steps[:0]
		for len(steps) < soakChunk {
			st, ok := adv.Next()
			if !ok {
				break
			}
			steps = append(steps, st)
		}
		if len(steps) == 0 {
			break
		}
		results = eng.SubmitBatchInto(results[:0], steps)
		for _, r := range results {
			if r.Aborted == soakHighID {
				t.Fatalf("the PriorityHigh transaction was aborted mid-attack: %v (%v)", r.Step, r.Err)
			}
			if r.Aborted != model.NoTxn && !notified[r.Aborted] {
				notified[r.Aborted] = true
				adv.NotifyAbort(r.Aborted)
			}
		}
		if arm == soakManual {
			eng.govern(soakWatermark)
		}
		samples = append(samples, retainedTotal(eng))
	}

	// The exempt long-runner outlived the whole attack and commits.
	res := eng.Submit(model.WriteFinal(soakHighID, soakHighEntity))
	if !res.Accepted() || res.CompletedTxn != soakHighID {
		t.Fatalf("PriorityHigh final after soak: %v (%v) — it must never be reaped", res.Outcome(), res.Err)
	}
	return samples, eng.Stats()
}

// TestSoakBoundedRetentionUnderAttack is the governor-ON arm with one pass
// per chunk: retained storage stays bounded by watermark + one chunk for the
// entire attack.
func TestSoakBoundedRetentionUnderAttack(t *testing.T) {
	samples, st := runSoak(t, soakManual)
	checkSoakBound(t, samples, st, soakWatermark+soakChunk)
}

// TestSoakBoundedRetentionSelfTriggered is the governor-ON arm with the
// watermark in Config and no pass run by hand: the engine's own trigger
// must hold the attack too.
//
// The bound is one chunk looser than the manual arm's. There a pass runs
// after every chunk, so a sample exceeds the watermark by at most what the
// pass could not reap. Here a pass runs at the end of a batch only if a
// shard's run asked for it before the batch's last window was answered;
// the run that answers the last window asks after its replies are out, so
// the next batch claims that request. A sample may therefore carry one
// more chunk of completions than the manual arm's: watermark + 2·chunk.
func TestSoakBoundedRetentionSelfTriggered(t *testing.T) {
	samples, st := runSoak(t, soakAuto)
	checkSoakBound(t, samples, st, soakWatermark+2*soakChunk)
	manual, mst := runSoak(t, soakManual)
	t.Logf("manual arm: chunks=%d reaped=%d peak=%d bound=%d", len(manual), mst.Reaped, maxSample(manual), soakWatermark+soakChunk)
}

// checkSoakBound asserts that a governed soak reaped and kept every sample
// at or under bound, and logs its reaps and peak.
func checkSoakBound(t *testing.T, samples []int64, st Stats, bound int64) {
	t.Helper()
	if len(samples) == 0 {
		t.Fatal("adversary produced no chunks")
	}
	for i, s := range samples {
		if s > bound {
			t.Fatalf("sample %d/%d: retained = %d, exceeds bound %d", i, len(samples), s, bound)
		}
	}
	if st.Reaped == 0 {
		t.Fatal("governor reaped nothing — the attack never pressured the watermark")
	}
	t.Logf("chunks=%d reaped=%d peak=%d bound=%d", len(samples), st.Reaped, maxSample(samples), bound)
}

// TestSoakUnboundedRetentionWithoutGovernor is the control arm: the same
// attack with the governor disabled leaks monotonically past the bound the
// ON arm enforces. If this arm ever stops growing, the adversary has gone
// self-healing (e.g. a reused trap entity) and the ON arm proves nothing.
func TestSoakUnboundedRetentionWithoutGovernor(t *testing.T) {
	samples, st := runSoak(t, soakOff)
	if st.Reaped != 0 {
		t.Fatalf("Stats.Reaped = %d with the governor disabled", st.Reaped)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i] < samples[i-1] {
			t.Fatalf("retained shrank without the governor: sample %d = %d < sample %d = %d (the leak self-healed)",
				i, samples[i], i-1, samples[i-1])
		}
	}
	final := samples[len(samples)-1]
	if bound := int64(soakWatermark + soakChunk); final <= bound {
		t.Fatalf("final retained = %d, want > %d — the attack is too weak to test the governor", final, bound)
	}
	t.Logf("chunks=%d final=%d", len(samples), final)
}

func maxSample(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
