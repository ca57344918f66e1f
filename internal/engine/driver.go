package engine

import "repro/internal/model"

// StepSource is a stream of scheduler steps with abort feedback —
// satisfied structurally by workload.Generator, so workload generators
// plug in without an import in either direction.
type StepSource interface {
	// Next returns the next step, or ok=false when the stream is done.
	Next() (step model.Step, ok bool)
	// NotifyAbort tells the source the engine aborted id, so it must
	// discard the transaction's remaining steps.
	NotifyAbort(id model.TxnID)
}

// Drive pumps a step source into the engine through SubmitBatchInto,
// batchSize steps per batch (each shard sees its steps in submission
// order, the shards apply their parts concurrently), reusing its step and
// result buffers so the submission loop allocates nothing in steady state.
// It reacts to rejections the way a per-step client session would: a
// rejected or errored step means the transaction is dead (cycle abort,
// misroute, overload shed, or engine shutdown), so the source discards its
// remaining plan. Because a whole batch is decided before the source hears
// about aborts, steps of a freshly dead transaction may still be in
// flight; the engine rejects them as unknown, and the abort is reported to
// the source only once. Returns the number of steps submitted.
func (e *Engine) Drive(src StepSource, batchSize int) int {
	if batchSize < 1 {
		batchSize = 1
	}
	steps := make([]model.Step, 0, batchSize)
	results := make([]Result, 0, batchSize)
	notified := make(map[model.TxnID]bool)
	submitted := 0
	for {
		steps = steps[:0]
		for len(steps) < batchSize {
			st, ok := src.Next()
			if !ok {
				break
			}
			steps = append(steps, st)
		}
		if len(steps) == 0 {
			return submitted
		}
		submitted += len(steps)
		results = e.SubmitBatchInto(results[:0], steps)
		for _, r := range results {
			if !r.Accepted() && !notified[r.Step.Txn] {
				notified[r.Step.Txn] = true
				src.NotifyAbort(r.Step.Txn)
			}
		}
		// Once notified, the source stops emitting the dead transaction's
		// steps, so duplicates can only occur within one batch: reset the
		// dedup set instead of letting it grow for the life of the drive.
		clear(notified)
	}
}
