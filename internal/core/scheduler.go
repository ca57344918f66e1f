// Package core implements the paper's primary contribution: the basic
// conflict-graph scheduler of Section 2 (Rules 1–3, preventive variant and
// the optimistic certification variant), the deletion conditions of
// Sections 3–4 (Lemma 1, Theorem 1's C1, Theorem 4's C2, Corollary 1's
// noncurrent rule), deletion policies built on them, the NP-complete
// maximum-safe-subset solver of Theorem 5, and the adversarial continuation
// of Theorem 1's necessity proof.
//
// Model recap (paper Section 2): a transaction BEGINs, performs read steps,
// and ends with one final atomic write step that installs its whole write
// set and completes (and commits) it. The scheduler maintains a conflict
// graph; a step that would create a cycle is rejected and its transaction
// aborts. Deleting a completed transaction replaces its node by
// predecessor×successor arcs and forgets its read/write sets.
package core

import (
	"fmt"
	"slices"

	"repro/internal/emit"
	"repro/internal/graph"
	"repro/internal/model"
)

// Stats accumulates scheduler counters for the experiment harness.
type Stats struct {
	Begins     int64
	Reads      int64
	Writes     int64 // final write steps accepted
	Accepted   int64 // accepted steps of any kind
	Rejected   int64 // rejected steps (each aborts its transaction)
	Aborts     int64
	Completed  int64
	Deleted    int64 // nodes removed by the deletion policy
	Sweeps     int64 // policy sweeps executed
	PeakNodes  int
	PeakArcs   int
	PeakKept   int   // peak number of completed transactions retained
	KeptSum    int64 // sum over steps of retained completed transactions
	KeptSample int64 // number of samples in KeptSum
}

// AvgKept returns the average number of completed transactions retained in
// the graph per accepted step.
func (s *Stats) AvgKept() float64 {
	if s.KeptSample == 0 {
		return 0
	}
	return float64(s.KeptSum) / float64(s.KeptSample)
}

// Merge adds o's counters into s. The Peak* fields add too, which makes a
// merged snapshot report an upper bound on the true global peak (per-shard
// peaks need not be simultaneous); exact global peaks would require a
// synchronized clock across shards.
func (s *Stats) Merge(o Stats) {
	s.Begins += o.Begins
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.Accepted += o.Accepted
	s.Rejected += o.Rejected
	s.Aborts += o.Aborts
	s.Completed += o.Completed
	s.Deleted += o.Deleted
	s.Sweeps += o.Sweeps
	s.PeakNodes += o.PeakNodes
	s.PeakArcs += o.PeakArcs
	s.PeakKept += o.PeakKept
	s.KeptSum += o.KeptSum
	s.KeptSample += o.KeptSample
}

// TxnState is the scheduler's record of one transaction. Deleting the
// transaction erases this record: that is the storage the paper's
// conditions let us reclaim. Records are pooled: once a transaction is
// deleted or aborted its TxnState (and access list) is recycled for a future
// BEGIN, so steady-state churn allocates nothing.
type TxnState struct {
	ID     model.TxnID
	Status model.Status
	// acc is the transaction's read/write set, one entry per entity it
	// accessed (entity.go).
	acc      []access
	BeginSeq int64
	EndSeq   int64
	// ref is the transaction's slot in the graph arena, valid while the
	// node is present (active or retained completed).
	ref graph.Ref
	// isCross marks a sub-transaction of a logical cross-shard transaction
	// (see subtxn.go); prepared marks it voted-yes-but-undecided.
	isCross  bool
	prepared bool
}

// Config configures a Scheduler.
type Config struct {
	// Policy is the deletion policy; nil means never delete (NoGC).
	Policy Policy
	// SweepManual disables the automatic post-step sweeps entirely: the
	// policy runs only when the owner calls SweepNow. Engines use this to
	// amortize GC off the hot path (sweeping between batches instead of
	// after every completion). Safe for any correct policy: C1/C2 are
	// evaluated on the graph as it stands whenever the sweep runs.
	SweepManual bool
	// OnDelete, if non-nil, is invoked for every node the policy deletes.
	OnDelete func(model.TxnID)
	// Cross, if non-nil, enables sub-transactions on this scheduler and
	// names the engine's cross-arc registry (see subtxn.go). Purely local
	// schedulers leave it nil and pay nothing.
	Cross CrossTracker
	// Emitter, if non-nil, receives a lifecycle event for every begin,
	// accepted step, veto, completion, abort, prepare vote, and sweep. The
	// emitter must never block (see internal/emit); a nil emitter costs one
	// predictable branch per step.
	Emitter emit.Emitter
}

// Result reports the effect of one step: the verdict, not the step, which
// the caller already holds.
type Result struct {
	Accepted bool
	// Aborted is the transaction aborted by a rejected step (NoTxn
	// otherwise).
	Aborted model.TxnID
	// CompletedTxn is set when the step completed its transaction.
	CompletedTxn model.TxnID
	// Deleted lists nodes removed by the policy during the post-step sweep.
	Deleted []model.TxnID
	// CrossVeto marks a rejection caused by the cross-arc registry (the
	// step would have closed a cycle spanning shard graphs) rather than a
	// cycle in this shard's own graph. Engines map the two onto distinct
	// typed errors.
	CrossVeto bool
}

// Scheduler is the paper's basic (preventive) conflict-graph scheduler.
type Scheduler struct {
	g    *graph.Graph
	txns map[model.TxnID]*TxnState
	// bySlot is txns indexed by arena slot (nil for a free slot), so the
	// deletion conditions can ask a node's status while walking Refs without
	// going back through the id→state map.
	bySlot []*TxnState
	// ents holds a record per entity (entity.go): the retained transactions
	// that read or wrote it — the information Rules 2 and 3 consult, as
	// arena slots, so the per-step cycle test never touches the id→slot map
	// — and its schedule-level current value (Corollary 1). Deleting a
	// transaction removes it from the records: its access sets are
	// forgotten.
	ents  entityTable
	seq   int64
	cfg   Config
	stats Stats
	// completed holds the retained completed transaction IDs, ascending:
	// inserted where a transaction completes (or is restored completed),
	// removed where it is deleted, so a sweep copies the candidate list
	// instead of scanning and sorting txns every fixpoint round.
	completed []model.TxnID
	// numActive is maintained incrementally so the per-step bookkeeping in
	// afterStep never scans txns.
	numActive int
	// statePool recycles TxnState records (with their access lists) across
	// delete/abort → begin.
	statePool []*TxnState
	// recScratch holds a final write's record slots, one per written
	// entity, from its cycle test to its bookkeeping.
	recScratch []int32
	// compScratch backs Sweep.Completed's candidate list, so the policy
	// sweep loop (which rebuilds the list every deletion round) allocates
	// nothing in steady state. manualSweep and its deleted buffer are the
	// reused Sweep handle of SweepNow for the same reason.
	compScratch []model.TxnID
	// walkScratch and predScratch are checkC1's DFS stack and its list of
	// active tight predecessors.
	walkScratch []graph.Ref
	predScratch []graph.Ref
	manualSweep Sweep
	// autoSweep is the same reuse for the per-step policy sweep in
	// afterStep: one Sweep handle (and deleted buffer) per scheduler, not
	// one heap allocation per completion. Result.Deleted aliases its
	// buffer until the next sweep, matching SweepNow's contract.
	autoSweep Sweep

	// Cross-shard bookkeeping (subtxn.go). labels holds each arena slot's
	// cross-ancestor label set. numCross counts the sub-nodes present and
	// numLabeled the slots carrying labels: both zero means no label work
	// can be needed.
	labels     [][]label
	numCross   int
	numLabeled int
	// inLabels, crossStack and flooded (the slots the current flood
	// labeled) are propagation scratch.
	inLabels   []label
	crossStack []graph.Ref
	flooded    []graph.Ref
	// sweepEpoch numbers the sweep in progress (0 outside one), and
	// liveMemo holds, per arena slot, the tracker's answer for the
	// transaction in it as of that sweep (see tracked).
	sweepEpoch int64
	liveMemo   []liveMemo
}

// NewScheduler returns an empty scheduler with the given configuration.
func NewScheduler(cfg Config) *Scheduler {
	return &Scheduler{
		g:    graph.New(),
		txns: make(map[model.TxnID]*TxnState),
		ents: entityTable{ids: make(map[model.Entity]int32)},
		cfg:  cfg,
	}
}

// Graph exposes the current (reduced) conflict graph. Callers must treat
// it as read-only.
func (s *Scheduler) Graph() *graph.Graph { return s.g }

// Stats returns a snapshot of the counters.
func (s *Scheduler) Stats() Stats { return s.stats }

// Seq returns the number of steps processed so far.
func (s *Scheduler) Seq() int64 { return s.seq }

// Txn returns the live record for id, or nil if the transaction is
// unknown, aborted, or deleted.
func (s *Scheduler) Txn(id model.TxnID) *TxnState { return s.txns[id] }

// Status implements StateView.
func (s *Scheduler) Status(id model.TxnID) model.Status {
	if t, ok := s.txns[id]; ok {
		return t.Status
	}
	return model.StatusAborted
}

// Access implements StateView for the generic condition checkers and the
// paper toolkit. It builds a fresh AccessSet from the transaction's access
// list, so every call allocates; the scheduler's own paths read the list.
func (s *Scheduler) Access(id model.TxnID) model.AccessSet {
	t, ok := s.txns[id]
	if !ok {
		return nil
	}
	out := make(model.AccessSet, len(t.acc))
	for _, ac := range t.acc {
		out[ac.x] = ac.a
	}
	return out
}

// ActiveTxns returns the IDs of active transactions, ascending.
func (s *Scheduler) ActiveTxns() []model.TxnID {
	var out []model.TxnID
	for id, t := range s.txns {
		if t.Status == model.StatusActive {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// CompletedTxns returns the IDs of retained completed transactions,
// ascending. The slice is freshly allocated; the policy sweep path copies
// the same index into a scratch buffer instead (Sweep.Completed).
func (s *Scheduler) CompletedTxns() []model.TxnID {
	return slices.Clone(s.completed)
}

// NumCompleted returns the number of retained completed transactions, O(1).
func (s *Scheduler) NumCompleted() int { return len(s.completed) }

// markCompleted flips t to completed and files it in the completed index.
func (s *Scheduler) markCompleted(t *TxnState) {
	t.Status = model.StatusCompleted
	i := s.completedPos(t.ID)
	s.completed = append(s.completed, t.ID)
	copy(s.completed[i+1:], s.completed[i:])
	s.completed[i] = t.ID
}

// completedPos returns the index of id in the completed index, or where it
// belongs if absent. (Hand-rolled rather than slices.BinarySearch: the
// hot-path lint reads a generic instantiation as interface boxing.)
func (s *Scheduler) completedPos(id model.TxnID) int {
	lo, hi := 0, len(s.completed)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); s.completed[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ActiveInfo names one active transaction for the retention governor's
// straggler selection: its ID, its BeginSeq incarnation, and its age in
// scheduler steps (Seq - BeginSeq) — the schedule-time measure of how long
// the transaction has been holding arcs open.
type ActiveInfo struct {
	ID       model.TxnID
	BeginSeq int64
	Age      int64
}

// OldestActives returns up to k active transactions ordered oldest-first by
// BeginSeq. Prepared sub-transactions are excluded: a YES vote pins the
// node until the coordinator decides, so aborting one out from under 2PC is
// never the governor's call. The scan is O(numActive) with an insertion
// pass bounded by k; the governor calls this off the per-step path, only
// when the retention watermark is crossed.
func (s *Scheduler) OldestActives(k int) []ActiveInfo {
	if k <= 0 || s.numActive == 0 {
		return nil
	}
	out := make([]ActiveInfo, 0, k)
	for id, t := range s.txns {
		if t.Status != model.StatusActive || t.prepared {
			continue
		}
		info := ActiveInfo{ID: id, BeginSeq: t.BeginSeq, Age: s.seq - t.BeginSeq}
		if len(out) < k {
			out = append(out, info)
		} else if info.BeginSeq < out[len(out)-1].BeginSeq {
			out[len(out)-1] = info
		} else {
			continue
		}
		for i := len(out) - 1; i > 0 && out[i].BeginSeq < out[i-1].BeginSeq; i-- {
			out[i], out[i-1] = out[i-1], out[i]
		}
	}
	return out
}

// NumActive returns the number of active transactions, O(1).
func (s *Scheduler) NumActive() int { return s.numActive }

// Apply processes one step, returning its Result. A protocol violation
// (unknown transaction, duplicate BEGIN, step after completion, a
// multiple-write-model step kind) yields an error and leaves the state
// unchanged.
//
//txgc:hotpath
func (s *Scheduler) Apply(step model.Step) (Result, error) {
	switch step.Kind {
	case model.KindBegin:
		return s.begin(step)
	case model.KindRead:
		return s.read(step)
	case model.KindWriteFinal:
		return s.writeFinal(step)
	default:
		return Result{}, fmt.Errorf("core: step kind %v not part of the basic model", step.Kind)
	}
}

// MustApply is Apply that panics on protocol errors; for tests and
// hand-built schedules.
func (s *Scheduler) MustApply(step model.Step) Result {
	res, err := s.Apply(step)
	if err != nil {
		panic(err)
	}
	return res
}

func (s *Scheduler) begin(step model.Step) (Result, error) {
	id := step.Txn
	if _, ok := s.txns[id]; ok {
		return Result{}, fmt.Errorf("core: duplicate BEGIN for T%d", id)
	}
	s.seq++
	// Rule 1: add an isolated node. A fresh node can never create a cycle.
	s.txns[id] = s.acquireState(id, s.g.AddNodeRef(id))
	s.numActive++
	s.stats.Begins++
	s.stats.Accepted++
	s.emit(emit.KindBegin, emit.ClassOK, id, s.seq, 0)
	res := Result{Accepted: true, Aborted: model.NoTxn, CompletedTxn: model.NoTxn}
	s.afterStep(&res, false)
	return res, nil
}

func (s *Scheduler) read(step model.Step) (Result, error) {
	t, err := s.activeTxn(step.Txn)
	if err != nil {
		return Result{}, err
	}
	s.seq++
	x := step.Entity
	// Rule 2: arcs from every node that has written x into the reader.
	g := s.g
	g.ResetTargets()
	r := s.recordOf(t, x)
	if r >= 0 {
		for _, w := range s.ents.recs[r].writers {
			if w != t.ref {
				g.MarkTarget(w)
			}
		}
	}
	// A cycle appears iff the reader already reaches one of the tails.
	if g.ReachesAnyTarget(t.ref) {
		return s.reject(t, false), nil
	}
	// Cross-shard cycle test: labels arriving at a sub-node are inter-shard
	// arcs; a registry veto rejects the read like a local cycle.
	if !s.crossCollect(t) {
		return s.reject(t, true), nil
	}
	g.LinkTargetsTo(t.ref)
	s.noteAccess(t, x, model.ReadAccess, r)
	if !s.crossFlood(t) {
		return s.reject(t, true), nil
	}
	s.stats.Reads++
	s.stats.Accepted++
	s.emit(emit.KindAccept, emit.ClassOK, t.ID, t.BeginSeq, 0)
	res := Result{Accepted: true, Aborted: model.NoTxn, CompletedTxn: model.NoTxn}
	s.afterStep(&res, false)
	return res, nil
}

func (s *Scheduler) writeFinal(step model.Step) (Result, error) {
	t, err := s.activeTxn(step.Txn)
	if err != nil {
		return Result{}, err
	}
	s.seq++
	g := s.g
	s.markWriteTargets(t, step.Entities)
	if g.ReachesAnyTarget(t.ref) {
		return s.reject(t, false), nil
	}
	if !s.crossCollect(t) {
		return s.reject(t, true), nil
	}
	g.LinkTargetsTo(t.ref)
	if !s.crossFlood(t) {
		// The write's new arcs pushed a label into a cross sub-node and the
		// registry vetoed: the step would close a cycle spanning shard
		// graphs. Reject it before any access bookkeeping lands — in
		// particular no current value may name a write that failed, or
		// Corollary 1's noncurrency test would see a phantom overwrite.
		return s.reject(t, true), nil
	}
	for i, x := range step.Entities {
		e := &s.ents.recs[s.noteAccess(t, x, model.WriteAccess, s.recScratch[i])]
		e.lastSeq, e.lastWriter = s.seq, t.ID
	}
	s.markCompleted(t)
	t.EndSeq = s.seq
	s.numActive--
	s.stats.Writes++
	s.stats.Accepted++
	s.stats.Completed++
	s.emit(emit.KindCommit, emit.ClassOK, t.ID, t.BeginSeq, 0)
	res := Result{Accepted: true, Aborted: model.NoTxn, CompletedTxn: t.ID}
	s.afterStep(&res, true)
	return res, nil
}

// markWriteTargets runs Rule 3's marking for t's final write of xs — arcs
// from every retained reader or writer of each entity into the writer — and
// leaves each entity's record slot in recScratch for the write's
// bookkeeping.
func (s *Scheduler) markWriteTargets(t *TxnState, xs []model.Entity) {
	g := s.g
	g.ResetTargets()
	s.recScratch = s.recScratch[:0]
	for _, x := range xs {
		r := s.recordOf(t, x)
		s.recScratch = append(s.recScratch, r)
		if r < 0 {
			continue
		}
		e := &s.ents.recs[r]
		for _, rd := range e.readers {
			if rd != t.ref {
				g.MarkTarget(rd)
			}
		}
		for _, w := range e.writers {
			if w != t.ref {
				g.MarkTarget(w)
			}
		}
	}
}

func (s *Scheduler) activeTxn(id model.TxnID) (*TxnState, error) {
	t := s.txns[id]
	if t == nil || t.Status != model.StatusActive || t.prepared {
		return nil, stepRefused(id, t)
	}
	return t, nil
}

// stepRefused is the error for a step by transaction id, whose record is t
// (nil when id is unknown: never begun, aborted, or deleted), when t may take
// no step: it is no longer active, or it is prepared. The formats that need
// no status name the ID as argument 2 ([2]), so one call serves all three.
func stepRefused(id model.TxnID, t *TxnState) error {
	format, status := "core: step for unknown transaction T%[2]d (no BEGIN, aborted, or deleted)", model.StatusAborted
	if t != nil {
		format, status = "core: step for %v transaction T%d", t.Status
		if t.prepared {
			format = "core: step for prepared transaction T%[2]d"
		}
	}
	return fmt.Errorf(format, status, id)
}

// acquireState returns a fresh-or-recycled TxnState for a BEGIN at the
// current sequence number.
func (s *Scheduler) acquireState(id model.TxnID, ref graph.Ref) *TxnState {
	var t *TxnState
	if n := len(s.statePool); n > 0 {
		t = s.statePool[n-1]
		s.statePool = s.statePool[:n-1]
	} else {
		//lint:ignore hotpath-alloc pool miss only: in steady state delete/abort→begin recycles through statePool, so this branch runs O(peak concurrent txns) times, not O(steps)
		t = &TxnState{ID: id}
	}
	t.ID = id
	t.Status = model.StatusActive
	t.BeginSeq = s.seq
	t.EndSeq = 0
	t.isCross = false
	t.prepared = false
	s.bindSlot(t, ref)
	return t
}

// bindSlot records that t occupies arena slot ref.
func (s *Scheduler) bindSlot(t *TxnState, ref graph.Ref) {
	t.ref = ref
	for int(ref) >= len(s.bySlot) {
		s.bySlot = append(s.bySlot, nil)
	}
	s.bySlot[ref] = t
}

// releaseState recycles a TxnState that has been removed from txns. The
// access list is cleared here, at release time, keeping its capacity.
func (s *Scheduler) releaseState(t *TxnState) {
	t.acc = t.acc[:0]
	s.bySlot[t.ref] = nil
	t.ref = graph.NoRef
	s.statePool = append(s.statePool, t)
}

// reject aborts the acting transaction: the step is refused and the node,
// its arcs, and all its access information are removed. cross marks a
// rejection forced by the cross-arc registry rather than a cycle in this
// shard's own graph.
func (s *Scheduler) reject(t *TxnState, cross bool) Result {
	if cross {
		s.emit(emit.KindCrossVeto, emit.ClassCrossCycle, t.ID, t.BeginSeq, 0)
	} else {
		s.emit(emit.KindVeto, emit.ClassCycle, t.ID, t.BeginSeq, 0)
	}
	s.forget(t)
	s.clearCross(t)
	s.g.RemoveRef(t.ref)
	t.Status = model.StatusAborted
	delete(s.txns, t.ID)
	s.numActive--
	s.releaseState(t)
	s.stats.Rejected++
	s.stats.Aborts++
	res := Result{Accepted: false, Aborted: t.ID, CompletedTxn: model.NoTxn, CrossVeto: cross}
	s.afterStep(&res, true)
	return res
}

// deleteTxn removes a completed transaction with the paper's reduction:
// splice predecessor×successor arcs and forget the access sets. It is the
// policy-facing primitive and performs no safety check itself.
func (s *Scheduler) deleteTxn(id model.TxnID) error {
	t, ok := s.txns[id]
	if !ok {
		return fmt.Errorf("core: delete of unknown transaction T%d", id)
	}
	if t.Status != model.StatusCompleted {
		return fmt.Errorf("core: delete of %v transaction T%d", t.Status, id)
	}
	s.forget(t)
	s.clearCross(t)
	s.g.ReduceRef(t.ref)
	delete(s.txns, id)
	i := s.completedPos(id)
	s.completed = append(s.completed[:i], s.completed[i+1:]...)
	s.releaseState(t)
	s.stats.Deleted++
	if s.cfg.OnDelete != nil {
		s.cfg.OnDelete(id)
	}
	return nil
}

// afterStep updates peak statistics and runs the deletion policy.
// sweepEvent is true for the events after which a C1 verdict can change, a
// completion or an abort. Sweeping only then is sufficient: in the basic
// model, BEGIN adds an isolated node and an accepted read only adds arcs
// whose head is the active reader, so neither can create a new
// active-tight-predecessor relationship or a new completed witness.
func (s *Scheduler) afterStep(res *Result, sweepEvent bool) {
	if s.cfg.Policy != nil && !s.cfg.SweepManual && sweepEvent {
		sw := &s.autoSweep
		sw.justCompleted = res.CompletedTxn
		s.sweep(sw)
		res.Deleted = sw.deleted
	}
	if n := s.g.NumNodes(); n > s.stats.PeakNodes {
		s.stats.PeakNodes = n
	}
	if a := s.g.NumArcs(); a > s.stats.PeakArcs {
		s.stats.PeakArcs = a
	}
	kept := len(s.completed)
	if kept > s.stats.PeakKept {
		s.stats.PeakKept = kept
	}
	s.stats.KeptSum += int64(kept)
	s.stats.KeptSample++
}

// sweep runs the policy once through sw. For its duration the tracker's
// LabelLive answers are remembered per arena slot (see tracked): the sweep
// number, which no earlier sweep of this scheduler shares, is the epoch.
func (s *Scheduler) sweep(sw *Sweep) {
	sw.s = s
	sw.deleted = sw.deleted[:0]
	s.sweepEpoch = s.stats.Sweeps + 1
	s.cfg.Policy.Sweep(sw)
	s.sweepEpoch = 0
	s.stats.Sweeps++
	s.emit(emit.KindSweep, emit.ClassOK, model.NoTxn, 0, int64(len(sw.deleted)))
}

// Noncurrent reports whether completed transaction id is noncurrent in the
// sense of Corollary 1: every entity it accessed has been subsequently
// overwritten. This is a property of the schedule, not of the (possibly
// reduced) graph — which is exactly why the naive rule is not
// compositional.
func (s *Scheduler) Noncurrent(id model.TxnID) bool {
	t, ok := s.txns[id]
	if !ok || t.Status != model.StatusCompleted {
		return false
	}
	for _, ac := range t.acc {
		if ac.seq >= s.ents.recs[ac.rec].lastSeq {
			return false // t read or wrote the current value of ac.x
		}
	}
	return true
}

// CurrentWriterPresent reports whether, for every entity the completed
// transaction accessed, the schedule's current writer of that entity is a
// *different* transaction that is still present in the graph. Together
// with noncurrency this restores compositional safety (the present current
// writer is a completed tight successor witness for every active tight
// predecessor, as in Corollary 1's proof).
func (s *Scheduler) CurrentWriterPresent(id model.TxnID) bool {
	t, ok := s.txns[id]
	if !ok {
		return false
	}
	for _, ac := range t.acc {
		e := &s.ents.recs[ac.rec]
		if !e.written() || e.lastWriter == id {
			return false
		}
		if _, present := s.txns[e.lastWriter]; !present {
			return false
		}
	}
	return true
}

// CheckC1 evaluates Theorem 1's condition C1 for transaction id against
// the scheduler's current (reduced) graph. It is the generic CheckC1 of
// conditions.go specialized to the scheduler's own arena (see checkC1) and
// agrees with it verdict for verdict; when several witnesses exist the one
// reported may differ.
func (s *Scheduler) CheckC1(id model.TxnID) (bool, *C1Violation) {
	t, ok := s.txns[id]
	if !ok || t.Status != model.StatusCompleted {
		return false, &C1Violation{Ti: id, Tj: model.NoTxn}
	}
	ok, tj, i := s.checkC1(t)
	if ok {
		return true, nil
	}
	return false, &C1Violation{Ti: id, Tj: s.g.IDOf(tj), X: t.acc[i].x, Strength: t.acc[i].a}
}

// c1Holds is CheckC1 without the witness, for the sweep loop: nothing is
// allocated whichever way the verdict goes.
func (s *Scheduler) c1Holds(id model.TxnID) bool {
	t, ok := s.txns[id]
	if !ok || t.Status != model.StatusCompleted {
		return false
	}
	ok, _, _ = s.checkC1(t)
	return ok
}

// checkC1 tests C1 for completed transaction t on arena slots. Both tight
// closures are visit stamps on the graph, never sets: the walk back from t
// through completed nodes lists the active nodes it stops at (t's active
// tight predecessors), and for each such Tj the walk forward through
// completed nodes stamps Tj's tight successors. "Some completed tight
// successor of Tj other than t accesses x at least as strongly" is then read
// off x's record — its writers, plus its readers when t only read x —
// against the stamps. On failure it names the predecessor and the index of
// the entity in t's access list.
func (s *Scheduler) checkC1(t *TxnState) (ok bool, tj graph.Ref, i int) {
	g := s.g
	g.BeginVisit()
	g.VisitRef(t.ref)
	preds := s.predScratch[:0]
	stack := append(s.walkScratch[:0], t.ref)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.InRefs(n) {
			if !g.VisitRef(p) {
				continue
			}
			if s.bySlot[p].Status == model.StatusActive {
				preds = append(preds, p)
			} else {
				stack = append(stack, p)
			}
		}
	}
	s.predScratch = preds
	s.walkScratch = stack // both walks leave it empty; keep what it grew to
	for _, pj := range preds {
		g.BeginVisit()
		g.VisitRef(pj)
		stack = append(stack, pj)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, c := range g.OutRefs(n) {
				if g.VisitRef(c) && s.bySlot[c].Status == model.StatusCompleted {
					stack = append(stack, c)
				}
			}
		}
		s.walkScratch = stack
		for i, ac := range t.acc {
			if !s.witnessed(&s.ents.recs[ac.rec], ac.a, t.ref) {
				return false, pj, i
			}
		}
	}
	return true, graph.NoRef, 0
}

// witnessed reports whether some completed transaction other than ti that
// carries the current visit stamp accesses e's entity at least as strongly
// as need.
func (s *Scheduler) witnessed(e *entity, need model.Access, ti graph.Ref) bool {
	for _, w := range e.writers {
		if w != ti && s.g.VisitedRef(w) && s.bySlot[w].Status == model.StatusCompleted {
			return true
		}
	}
	if need == model.WriteAccess {
		return false
	}
	for _, r := range e.readers {
		if r != ti && s.g.VisitedRef(r) && s.bySlot[r].Status == model.StatusCompleted {
			return true
		}
	}
	return false
}

// ActiveAncestor looks for an active transaction that reaches id by any
// path (Lemma 1's obstacle), stopping at the first one. It returns that
// transaction's arena slot and BeginSeq — together they name one
// incarnation, since slots are recycled but sequence numbers are not — so a
// caller can later ask ActiveAt whether the very same obstacle still stands.
// It does for as long as that transaction stays active: the search stops at
// the first active node it meets, so the path from it to id runs through
// completed nodes only, and those leave the graph only by deletion, which
// splices their arcs. found is false when id has no active ancestor or is
// not in the graph.
func (s *Scheduler) ActiveAncestor(id model.TxnID) (slot graph.Ref, beginSeq int64, found bool) {
	t, ok := s.txns[id]
	if !ok {
		return graph.NoRef, 0, false
	}
	a := s.g.FindAncestorRef(t.ref, s.activeSlot)
	if a == graph.NoRef {
		return graph.NoRef, 0, false
	}
	return a, s.bySlot[a].BeginSeq, true
}

func (s *Scheduler) activeSlot(r graph.Ref) bool {
	return s.bySlot[r].Status == model.StatusActive
}

// ActiveAt reports whether slot still holds the active transaction that
// began at beginSeq.
func (s *Scheduler) ActiveAt(slot graph.Ref, beginSeq int64) bool {
	t := s.bySlot[slot]
	return t != nil && t.BeginSeq == beginSeq && t.Status == model.StatusActive
}

// Terminations counts the active transactions that have stopped being
// active so far — completions, rejections and aborts. While it has not
// moved, every ActiveAt a caller could ask still answers as it last did.
func (s *Scheduler) Terminations() int64 { return s.stats.Completed + s.stats.Aborts }

// CheckC2 evaluates Theorem 4's condition C2 for the set of transactions.
func (s *Scheduler) CheckC2(set graph.NodeSet) (bool, *C2Violation) {
	return CheckC2(s, s.g, set)
}

// ForceDelete removes a completed transaction WITHOUT any safety check.
// It exists for the necessity experiments (Theorem 1's adversarial
// continuations require performing a deletion that is known to be unsafe)
// and must never be used by deletion policies.
func (s *Scheduler) ForceDelete(id model.TxnID) error {
	return s.deleteTxn(id)
}

// SweepNow runs the configured deletion policy once, outside the normal
// post-step hook, and returns the transactions it deleted. Owners that set
// Config.SweepManual call this between batches so GC cost is amortized off
// the per-step path. It is a no-op without a policy. The returned slice is
// reused by the next SweepNow on this scheduler; callers that retain it
// across sweeps must copy.
func (s *Scheduler) SweepNow() []model.TxnID {
	if s.cfg.Policy == nil {
		return nil
	}
	sw := &s.manualSweep
	sw.justCompleted = model.NoTxn
	s.sweep(sw)
	return sw.deleted
}

// AbortTxn aborts an active transaction as if one of its steps had been
// rejected: the node, its arcs, and its access information are removed.
// Removing an active node never un-breaks a cycle check already passed and
// erases only arcs into/out of a transaction that will never commit, so it
// is always safe. Engines use it for the ABORT decision of a cross-shard
// two-phase commit (a prepared sub-transaction's pin is released with its
// node) and to clean up after disconnected clients.
func (s *Scheduler) AbortTxn(id model.TxnID) error {
	t, ok := s.txns[id]
	if !ok {
		return fmt.Errorf("core: abort of unknown transaction T%d", id)
	}
	if t.Status != model.StatusActive {
		return fmt.Errorf("core: abort of %v transaction T%d", t.Status, id)
	}
	s.emit(emit.KindAbort, emit.ClassTxnAborted, id, t.BeginSeq, 0)
	s.forget(t)
	s.clearCross(t)
	s.g.RemoveRef(t.ref)
	t.Status = model.StatusAborted
	delete(s.txns, id)
	s.numActive--
	s.releaseState(t)
	s.stats.Aborts++
	res := Result{Accepted: false, Aborted: id, CompletedTxn: model.NoTxn}
	s.afterStep(&res, true)
	return nil
}

// emit publishes one lifecycle event if an emitter is configured. The
// emitter never blocks, so this never adds latency to a step.
func (s *Scheduler) emit(k emit.Kind, c emit.Class, txn model.TxnID, inc, n int64) {
	if s.cfg.Emitter != nil {
		s.cfg.Emitter.Emit(emit.Event{Kind: k, Class: c, Txn: txn, Incarnation: inc, N: n})
	}
}

// DeleteIfSafe deletes id iff C1 holds, returning whether it deleted.
func (s *Scheduler) DeleteIfSafe(id model.TxnID) bool {
	if !s.c1Holds(id) {
		return false
	}
	if err := s.deleteTxn(id); err != nil {
		return false
	}
	return true
}
