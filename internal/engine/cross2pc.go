// Cross-shard two-phase commit: the engine-side half of the protocol whose
// shard-side half lives in core's sub-transactions (core/subtxn.go).
//
// A cross-partition transaction is split into one sub-transaction per
// participating shard, all sharing the logical TxnID. BEGIN fans out
// sub-begins; reads route to the owning shard like local steps, and travel
// in the submission window with them (Engine.admit); the final write runs
// the two-phase commit from the submitting goroutine: PREPARE every
// participant, then COMMIT or ABORT everywhere. A sub-begin and a vote are
// ordinary steps to the shard, a BEGIN and a final write applied by
// applyOne: the final write of a sub-transaction is its slice of the write
// set, and a rejection is the NO vote, which aborts that shard's sub-node,
// while an accepted one is the YES vote, which holds it prepared. The
// decision is a step as well, model.KindCommit or model.KindAbort, which
// the shard applies by applyCommitSub or applyAbortSub. Each
// phase is a window of one step per participant, sent through Engine.visit
// like a door's window: the participants whose lock is free first, then
// the rest; COMMIT visits the first participant alone before the others,
// since its durable decision is the commit point and must exist before any
// other participant commits. Non-participating shards never hear about any of
// it, and participating shards keep serving other traffic between vote and
// decision — the prepared state, not a pause, is what freezes the
// sub-transaction.
//
// The cross-arc registry below, which tracks the same crossTxn records the
// routes name, is the piece that restores global safety: it records, per
// pair of cross transactions, whether one's sub-node reaches the other's
// inside some shard graph (reported by the shards' label propagation), and
// vetoes the step that would close a cycle among those reach-arcs. A
// committed transaction stays until every participant has reported its
// sub-node clean; each participant's scheduler files the committed sub-node
// on the active ancestor that keeps it dirty, and the shard reports it once
// none is left. The registry holds live state only: a retired or aborted
// transaction's record goes at once, and nothing of its ID is kept for the
// labels it left in shard graphs — those name its incarnation, not the
// reusable TxnID, so they die with it. See the package documentation for
// the full argument.
package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/emit"
	"repro/internal/model"
)

// testHookPrepared, when non-nil, is invoked by commitCross after every
// participant voted YES and before the decision — the window in which a
// prepared-but-undecided sub-transaction sits on each shard. Tests use
// it to cancel the submitting context exactly between PREPARE and decision.
var testHookPrepared func(model.TxnID)

// crossTxn is the engine's one record of a cross-partition transaction: its
// route names it until the decision, the registry until it retires. id and
// parts never change, so both read them without a lock.
type crossTxn struct {
	id    model.TxnID
	parts []int // participating shards, ascending
	// The protocol driver's part, guarded by mu. steps[i] is what the 2PC
	// phase in progress applies on parts[i], and out[i] its answer (see
	// fanOut).
	mu    sync.Mutex
	steps []model.Step
	out   []Result
	// done marks the decision (or a failed begin); committed distinguishes
	// COMMIT from ABORT for late-arriving steps.
	done      bool
	committed bool
	// The registry's part, guarded by crossRegistry.mu. clean[i] records
	// that parts[i] reported the sub-node has no active ancestor there
	// (monotone; see reportClean), and cleanN counts them. succ and pred are
	// the inter-shard reach-arcs to and from other registered records.
	clean      []bool
	cleanN     int
	succ, pred map[*crossTxn]struct{}
	// Up to inlineParts participants, parts, steps, out and clean live
	// here, inside the record, so they cost no allocation of their own.
	legs struct {
		parts [inlineParts]int
		steps [inlineParts]model.Step
		out   [inlineParts]Result
		clean [inlineParts]bool
	}
}

// inlineParts is how many participants a crossTxn holds in itself
// (crossTxn.legs).
const inlineParts = 4

// decide readies steps for a fan-out of the decision kind, KindCommit or
// KindAbort: one step per participant, naming the transaction.
func (ct *crossTxn) decide(kind model.StepKind) {
	for i := range ct.steps {
		ct.steps[i] = model.Step{Kind: kind, Txn: ct.id}
	}
}

// refused reports whether r is visit's answer for a participant the engine
// closed under before it ran. A participant that ran and failed answers
// otherwise: a NO vote or a failed commit point names the transaction in
// Aborted, and a protocol error wraps ErrProtocol.
func refused(r Result) bool { return r.Aborted == model.NoTxn && errors.Is(r.Err, ErrClosed) }

// participant reports whether shard p takes part in the transaction.
func (ct *crossTxn) participant(p int) bool { return slices.Contains(ct.parts, p) }

// crossRegistry tracks live cross transactions and the inter-shard
// reach-arcs among them. It implements core.CrossTracker for every shard
// scheduler of the engine. All methods are safe for concurrent use. mu
// guards the fields below and the registry's part of every record it
// tracks. What a shard still owes the registry — the reports of its
// committed sub-nodes — its scheduler keeps, filed on the active ancestors
// that keep them dirty (core/witness.go), so the shard's housekeeping takes
// mu only to report. What the registry owes a shard — the transactions it
// stopped tracking — it keeps for the shard (retired) until the shard's
// next visit takes them.
type crossRegistry struct {
	mu   sync.Mutex
	txns map[model.TxnID]*crossTxn
	// retired[p] lists the transactions with a sub-transaction on shard p
	// that the registry stopped tracking since p last took the list, and
	// due[p] says it is not empty, so a visit with nothing to take never
	// takes mu. Both are written under mu.
	retired [][]model.TxnID
	due     []atomic.Bool
}

func newCrossRegistry(shards int) *crossRegistry {
	return &crossRegistry{
		txns:    make(map[model.TxnID]*crossTxn),
		retired: make([][]model.TxnID, shards),
		due:     make([]atomic.Bool, shards),
	}
}

var _ core.CrossTracker = (*crossRegistry)(nil)

// register starts tracking ct. It refuses (false) an ID it still tracks: a
// committed transaction's record outlives its route until it retires, and
// overwriting it would lose its reach-arcs and clean marks. An ID whose
// earlier incarnation retired is fine: that incarnation's leftover labels
// name its own sub-nodes, never this one's, so nothing needs erasing first.
func (r *crossRegistry) register(ct *crossTxn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, tracked := r.txns[ct.id]; tracked {
		return false
	}
	r.txns[ct.id] = ct
	return true
}

// removeLocked erases ct and its arcs, files its ID on the retired list of
// every participant, then lets each registry successor retire in turn,
// since losing the arc from ct may have zeroed its in-degree. ct is out of
// its neighbours' sets before the cascade starts, so the cascade never
// touches ct.succ while it is walked. Caller holds r.mu; the map names ct.
func (r *crossRegistry) removeLocked(ct *crossTxn) {
	for p := range ct.pred {
		delete(p.succ, ct)
	}
	for s := range ct.succ {
		delete(s.pred, ct)
	}
	delete(r.txns, ct.id)
	for _, p := range ct.parts {
		r.retired[p] = append(r.retired[p], ct.id)
		r.due[p].Store(true)
	}
	for s := range ct.succ {
		r.maybeRetireLocked(s)
	}
}

// drop retires an aborted cross transaction immediately: its sub-nodes are
// removed from every shard graph, so it can never be on a future cycle.
// Labels it sourced die with it (pruned lazily by the shards). Dropping
// its arcs may unblock successors' retirement. A record the map does not
// name (register refused it) leaves the tracked one alone.
func (r *crossRegistry) drop(ct *crossTxn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.txns[ct.id] == ct {
		r.removeLocked(ct)
	}
}

// maybeRetireLocked retires ct iff no future global cycle can pass through
// it, which needs both of:
//
//  1. clean on every participant. A shard reports only a sub-node it has
//     committed, so every sub-node has stopped acting; and no active node
//     reaches any of them, so (arcs only ever point into acting nodes) the
//     logical node's ancestor set is frozen on every shard, and no *new*
//     label can ever arrive at it (a node whose new label would flow in
//     would itself be an active predecessor);
//  2. registry in-degree zero — no live cross transaction reaches it even
//     through *existing* paths. Without this, a cycle could close through
//     ct later without touching ct at all: X→…→ct and ct→…→Y both already
//     exist, and only the return path Y→…→X is new. Retiring ct would have
//     deleted exactly the two arcs that make that veto fire.
//
// Condition 1 guarantees no new incoming paths, 2 no existing incoming path
// from anything still alive; together nothing can ever re-enter ct, so its
// outgoing reach-arcs are dead weight and the record can go. Retirement
// cascades: removing ct's out-arcs may zero a successor's in-degree. One
// cascade can reach ct twice, so it retires only while the map names it.
func (r *crossRegistry) maybeRetireLocked(ct *crossTxn) {
	if r.txns[ct.id] == ct && ct.cleanN == len(ct.parts) && len(ct.pred) == 0 {
		r.removeLocked(ct)
	}
}

// reportClean records that each id's sub-node on shard, which shard has
// committed, has no active ancestor. The property is monotone — in the
// basic model arcs only ever point into acting nodes, so once every path
// into a completed sub-node passes through completed nodes only, its
// ancestor set is frozen — which is what makes a one-shot report sound.
// When the last participant reports, the transaction is retired from the
// registry.
func (r *crossRegistry) reportClean(shard int, ids ...model.TxnID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range ids {
		ct, ok := r.txns[id]
		if !ok {
			continue
		}
		if i := slices.Index(ct.parts, shard); i >= 0 && !ct.clean[i] {
			ct.clean[i] = true
			ct.cleanN++
		}
		r.maybeRetireLocked(ct)
	}
}

// reachableLocked reports whether from reaches to through registry arcs.
// Caller holds r.mu; the registry graph is tiny (live cross transactions
// only), so a straight DFS with a map is fine.
func (r *crossRegistry) reachableLocked(from, to *crossTxn) bool {
	if from == to {
		return true
	}
	visited := map[*crossTxn]struct{}{from: {}}
	stack := []*crossTxn{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for s := range n.succ {
			if s == to {
				return true
			}
			if _, seen := visited[s]; !seen {
				visited[s] = struct{}{}
				stack = append(stack, s)
			}
		}
	}
	return false
}

// OnCrossReach implements core.CrossTracker: a shard discovered a path
// src→…→dst inside its graph. Recording the reach-arc src→dst is refused
// (false) iff dst already reaches src through the registry — then some
// chain of shard-local paths dst→…→src exists across the other shards,
// and accepting the acting step would close a global cycle.
func (r *crossRegistry) OnCrossReach(src, dst model.TxnID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, sok := r.txns[src]
	d, dok := r.txns[dst]
	if !sok || !dok {
		// One side is retired: it can no longer be on a future cycle, so
		// the arc is irrelevant.
		return true
	}
	if _, ok := s.succ[d]; ok {
		return true
	}
	if r.reachableLocked(d, s) {
		return false
	}
	if s.succ == nil {
		s.succ = make(map[*crossTxn]struct{})
	}
	if d.pred == nil {
		d.pred = make(map[*crossTxn]struct{})
	}
	s.succ[d] = struct{}{}
	d.pred[s] = struct{}{}
	return true
}

// take hands shard p the transactions retired since its last take, and
// keeps buf, emptied, to fill next. Shard p takes at the start of every
// visit, before any step, and passes each ID to its scheduler's Retire, so
// a retirement lands before any step that follows it and reaches the
// incarnation it names: a new cross incarnation of the ID registers only
// after the old one retired, and a new local one cannot begin on p while p
// still holds the old sub-node.
func (r *crossRegistry) take(p int, buf []model.TxnID) []model.TxnID {
	if !r.due[p].Load() {
		return buf[:0]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := r.retired[p]
	r.retired[p] = buf[:0]
	r.due[p].Store(false)
	return ids
}

// ---------------------------------------------------------------------------
// Engine-side protocol driver. All of these run on the submitting client's
// goroutine with ct.mu held. Every phase is a window with one step per
// participant, sent through Engine.visit like a door's window, so each
// participant applies its part under its own shard lock; no shard code takes
// a ct.mu, so concurrent two-phase commits (even with overlapping
// participants) cannot deadlock.

// fanOut applies ct.steps[i] on every participant i that want names and
// leaves each answer in ct.out[i]. It goes windowCap participants at a time,
// since a part names its step by one bit of a 64-bit mask. want may read
// ct.out[i], the previous phase's answer. Caller holds ct.mu and has filled
// ct.steps.
func (e *Engine) fanOut(ct *crossTxn, want func(i int) bool) {
	var parts [windowCap]part
	for lo := 0; lo < len(ct.parts); lo += windowCap {
		hi, n := min(lo+windowCap, len(ct.parts)), 0
		for i := lo; i < hi; i++ {
			if want(i) {
				parts[n] = part{shard: ct.parts[i], own: 1 << (i - lo)}
				n++
			}
		}
		req := request{steps: ct.steps[lo:hi], out: ct.out[lo:hi]}
		e.visit(&req, parts[:n])
	}
}

// participantsOf appends to parts the sorted distinct shards owning the
// footprint; parts comes in empty.
func (e *Engine) participantsOf(parts []int, xs []model.Entity) []int {
	for _, x := range xs {
		if p := e.partitionOf(x); !slices.Contains(parts, p) {
			parts = append(parts, p)
		}
	}
	slices.Sort(parts)
	return parts
}

// beginCross fans a cross-partition BEGIN out as one sub-begin per
// participating shard, then lands the caller's pending work (settle; see
// Engine.admit), whose steps therefore apply after the sub-begins on every
// shard they share: the order the shards' BeginSeq, and so the governor's
// choice of straggler, follow. An ID the registry still tracks is refused
// before anything begins. On any other failure (duplicate ID on some shard,
// or the engine closing) every sub-begin that applied is aborted and the
// logical transaction never existed; if one applied, the
// trace marks the incarnation it opened aborted. When none applied, the
// ID's current incarnation in the trace is an earlier transaction's, which
// the mark would wrongly kill.
//
// ct.mu is held across settle, and settle's landed may take the mu of
// another cross transaction with a rejected read in the window. That cannot
// deadlock: this ct was created here and no step of it can be pending, so
// the only other party that can want its mu is Engine.Abort, which holds no
// other ct.mu while it waits; and whoever holds another transaction's mu
// waits only for shard locks, whose holders never wait for a ct.mu.
func (e *Engine) beginCross(step model.Step, pri Priority, settle func()) Result {
	ct := &crossTxn{id: step.Txn}
	ct.parts = e.participantsOf(ct.legs.parts[:0], step.Entities)
	if n := len(ct.parts); n <= inlineParts {
		ct.steps, ct.out, ct.clean = ct.legs.steps[:n], ct.legs.out[:n], ct.legs.clean[:n]
	} else {
		ct.steps, ct.out, ct.clean = make([]model.Step, n), make([]Result, n), make([]bool, n)
	}
	if !e.routes.storeNew(step.Txn, route{ct: ct, pri: pri}) {
		return duplicateBegin(step)
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.done {
		// A concurrent Engine.Abort won the race after the route was
		// published and already resolved the transaction (it deleted the
		// route and counted the abort). Beginning sub-transactions now
		// would resurrect it with no route left to ever finish them.
		return answer(step.Txn, stepErr(step, ErrTxnAborted))
	}
	if !e.registry.register(ct) {
		// The ID names a committed cross transaction the registry still
		// tracks. Nothing is begun yet, so ending ct, which leaves that
		// record alone, is the whole rollback.
		e.endCross(ct, false)
		return duplicateBegin(step)
	}
	for i := range ct.steps {
		ct.steps[i] = step
	}
	e.fanOut(ct, func(int) bool { return true })
	settle()
	failed := slices.IndexFunc(ct.out, func(r Result) bool { return r.Err != nil })
	if failed < 0 {
		e.crossTxns.Add(1)
		e.accepted.Add(1)
		return answer(model.NoTxn, nil)
	}
	// A participant that could not run answers as the engine would have
	// answered the BEGIN itself.
	res, applied := ct.out[failed], false
	ct.decide(model.KindAbort)
	e.fanOut(ct, func(i int) bool {
		begun := ct.out[i].Err == nil
		applied = applied || begun
		return begun
	})
	if applied && e.cfg.Log != nil {
		e.cfg.Log.MarkAborted(ct.id)
	}
	e.endCross(ct, false)
	return res
}

// endCross ends ct: it marks it done, drops it from the registry unless it
// committed (then it retires later), and deletes its route. Caller holds
// ct.mu.
func (e *Engine) endCross(ct *crossTxn, committed bool) {
	ct.done, ct.committed = true, committed
	if !committed {
		e.registry.drop(ct)
	}
	e.routes.delete(ct.id)
}

// crossStep answers a cross transaction's final write, or a read outside
// its participants. Its other reads never come here: they go to their
// shards like local steps, and landed finishes the abort a rejected one
// starts.
func (e *Engine) crossStep(ctx context.Context, step model.Step, ct *crossTxn) Result {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.done {
		if ct.committed {
			return errResult(fmt.Errorf("engine: step for T%d after its final write: %w", ct.id, ErrProtocol))
		}
		return e.deadTxn(step)
	}
	if step.Kind == model.KindRead {
		return e.crossMisroute(step, ct)
	}
	return e.commitCross(ctx, ct, step)
}

// crossMisroute aborts a cross transaction that touched an entity outside
// its declared participant set. Caller holds ct.mu.
func (e *Engine) crossMisroute(step model.Step, ct *crossTxn) Result {
	e.misroutes.Add(1)
	e.rejected.Add(1)
	if e.cfg.Bus != nil {
		e.cfg.Bus.Emit(emit.Event{Kind: emit.KindVeto, Class: emit.ClassMisroute,
			Shard: emit.NoShard, Txn: ct.id})
	}
	if e.cfg.Log != nil {
		e.cfg.Log.Append(step, false)
	}
	e.finishCrossAbort(ct, -1)
	return answer(ct.id, stepErr(step, ErrMisroute))
}

// finishCrossAbort aborts ct's sub-transactions on every participant except
// skipShard (whose scheduler already removed its own sub-node), all at once
// (fanOut), then retires the logical transaction: route, registry record,
// trace exclusion, and the engine's logical abort counters. A shard that
// already lost its sub-node ignores the abort. Caller holds ct.mu.
func (e *Engine) finishCrossAbort(ct *crossTxn, skipShard int) {
	ct.decide(model.KindAbort)
	e.fanOut(ct, func(i int) bool { return ct.parts[i] != skipShard })
	e.endCross(ct, false)
	e.aborted.Add(1)
	e.crossAborts.Add(1)
	if e.cfg.Log != nil {
		e.cfg.Log.MarkAborted(ct.id)
	}
}

// writeSubsetFor carves the slice of the final write set owned by shard p.
func (e *Engine) writeSubsetFor(final model.Step, p int) model.Step {
	var xs []model.Entity
	for _, x := range final.Entities {
		if e.partitionOf(x) == p {
			xs = append(xs, x)
		}
	}
	return model.Step{Kind: model.KindWriteFinal, Txn: final.Txn, Entities: xs}
}

// commitCross is the two-phase commit of ct's final write. Caller holds
// ct.mu. PREPARE goes to every participant at once; the first NO vote in
// participant order, or the first shard that could not vote, decides the
// answer. COMMIT goes to parts[0] first, whose durable RecCommit is the
// commit point, then to the rest at once, which commit on that evidence
// (shard.applyCommitSub). Every outcome — commit, local-cycle vote, registry
// veto, context cancellation between PREPARE and decision, shard shutdown —
// resolves the transaction deterministically on all participants: a
// prepared-but-undecided sub-transaction never outlives the decision on
// any shard.
func (e *Engine) commitCross(ctx context.Context, ct *crossTxn, final model.Step) Result {
	for _, x := range final.Entities {
		if !ct.participant(e.partitionOf(x)) {
			return e.crossMisroute(final, ct)
		}
	}
	for i, p := range ct.parts {
		ct.steps[i] = e.writeSubsetFor(final, p)
	}
	e.fanOut(ct, func(int) bool { return true })
	e.prepares.Add(int64(len(ct.parts)))
	for _, r := range ct.out {
		if refused(r) {
			e.finishCrossAbort(ct, -1)
			return answer(ct.id, stepErr(final, ErrClosed))
		}
		if r.Err != nil {
			// A NO vote — a local cycle on that shard (ErrCycle) or a
			// registry veto (ErrCrossCycle) — or a vote the shard could not
			// cast. Abort everywhere: only this transaction dies; no
			// bystander is touched.
			e.finishCrossAbort(ct, -1)
			if r.Outcome() == OutcomeRejected {
				e.rejected.Add(1)
			}
			return answer(ct.id, r.Err)
		}
	}
	if hook := testHookPrepared; hook != nil {
		hook(ct.id)
	}
	if ctx.Err() != nil {
		// The client's context died while every participant sat prepared:
		// decide ABORT, releasing the sub-nodes and the registry's record,
		// exactly as a client abort would.
		e.rejected.Add(1)
		e.finishCrossAbort(ct, -1)
		return answer(ct.id, ctxErr(final, context.Cause(ctx)))
	}
	// Unanimous YES: commit everywhere. The write arcs are already in every
	// participant's graph (placed at prepare), so the decision only flips
	// sub-transactions to completed. The first
	// participant's durable RecCommit is the commit point; if it cannot be
	// journaled, no evidence of the decision exists anywhere and the
	// transaction resolves as the abort recovery would presume.
	ct.decide(model.KindCommit)
	e.fanOut(ct, func(i int) bool { return i == 0 })
	if r := ct.out[0]; r.Err != nil && r.Aborted == ct.id {
		// The commit point failed (journal dead on the first participant,
		// which already released its own sub): abort the siblings and
		// report the transaction aborted.
		e.finishCrossAbort(ct, ct.parts[0])
		return answer(ct.id, r.Err)
	}
	e.fanOut(ct, func(i int) bool { return i > 0 && !refused(ct.out[0]) })
	if slices.ContainsFunc(ct.out, refused) {
		// The engine is closing; surviving shards keep their prepared state
		// only until they shut down.
		e.endCross(ct, false)
		return closedResult(final)
	}
	// Each participant's scheduler filed its clean report when it committed;
	// the registry lets the record go once the last one is in.
	e.endCross(ct, true)
	e.accepted.Add(1)
	e.completed.Add(1)
	return Result{Aborted: model.NoTxn, CompletedTxn: ct.id}
}

// crossClientAbort implements Engine.Abort for a cross transaction: it
// releases the sub-transactions (prepared ones included) on all participants,
// whatever state the transaction is in — freshly begun, mid-reads, or
// prepared-but-undecided (Abort then serializes after the decision via
// ct.mu and reports false). Returns whether the abort took effect.
func (e *Engine) crossClientAbort(ct *crossTxn) bool {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.done {
		return false
	}
	e.finishCrossAbort(ct, -1)
	return true
}
