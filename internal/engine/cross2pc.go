// Cross-shard two-phase commit: the engine-side half of the protocol whose
// shard-side half lives in core's sub-transactions (core/subtxn.go).
//
// A cross-partition transaction is split into one sub-transaction per
// participating shard, all sharing the logical TxnID. BEGIN fans out
// sub-begins; reads route to the owning shard like local steps, and travel
// in the submission window with them (Engine.admit); the final write runs
// the two-phase commit from the submitting goroutine: PREPARE every
// participant (the shard votes on its slice of the write set, pinning the
// sub-node on yes), then COMMIT or ABORT everywhere. Every fan-out visits
// the participants whose lock is free first and waits only for the rest;
// COMMIT visits the first participant alone before the others, since its
// durable decision is the commit point and must exist before any other
// participant commits. Non-participating shards never hear about any of
// it, and participating shards keep serving other traffic between vote and
// decision — the prepared pin, not a pause, is what freezes the
// sub-transaction.
//
// The cross-arc registry below is the piece that restores global safety:
// it records, per pair of cross transactions, whether one's sub-node
// reaches the other's inside some shard graph (reported by the shards'
// label propagation), and vetoes the step that would close a cycle among
// those reach-arcs. A committed transaction stays until every participant
// has reported its sub-node clean; each participant files that report as a
// debt of its own when it commits the sub-node. The registry holds live
// state only: a retired or aborted transaction's entry goes at once, and
// nothing of its ID is kept for the labels it left in shard graphs — those
// name its incarnation, not the reusable TxnID, so they die with it. See
// the package documentation for the full argument.
package engine

import (
	"context"
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
// prepared-but-undecided sub-transaction is pinned on each shard. Tests use
// it to cancel the submitting context exactly between PREPARE and decision.
var testHookPrepared func(model.TxnID)

// crossTxn is the engine's record of a live cross-partition transaction.
type crossTxn struct {
	mu    sync.Mutex
	id    model.TxnID
	parts []int // participating shards, ascending
	// legs[i] is parts[i]'s share of the fan-out in progress, then its
	// answer (see fanOut); guarded by mu like everything below.
	legs []leg
	// done marks the decision (or a failed begin); committed distinguishes
	// COMMIT from ABORT for late-arriving steps.
	done      bool
	committed bool
}

// leg is one participant's share of a fan-out: req is what it applies and,
// once ok, holds the participant's answer (ok=false: the participant was
// not asked, or the engine closed first). waiting marks a leg the fan-out
// has yet to run. step is what a sub-begin or prepare applies, which req
// points at: kept here, with ct, it costs no allocation of its own.
type leg struct {
	req     request
	ok      bool
	waiting bool
	step    model.Step
}

// failed reports whether the leg's request was not carried out.
func (l leg) failed() bool { return !l.ok || l.req.res.Err != nil }

// participant reports whether shard p takes part in the transaction.
func (ct *crossTxn) participant(p int) bool {
	for _, q := range ct.parts {
		if q == p {
			return true
		}
	}
	return false
}

// crossEntry is one cross transaction's registry record.
type crossEntry struct {
	parts []int
	// clean[i] records that parts[i] reported the sub-node has no active
	// ancestor there (monotone; see reportClean). cleanN counts them.
	clean  []bool
	cleanN int
	// out/in are the inter-shard reach-arcs among registered transactions.
	out map[model.TxnID]struct{}
	in  map[model.TxnID]struct{}
}

// crossRegistry tracks live cross transactions and the inter-shard
// reach-arcs among them. It implements core.CrossTracker for every shard
// scheduler of the engine. All methods are safe for concurrent use. What a
// shard still owes the registry — the reports of its committed sub-nodes —
// the shard keeps itself (shard.watch), so its housekeeping takes mu only to
// report.
type crossRegistry struct {
	mu   sync.Mutex
	txns map[model.TxnID]*crossEntry
	// live mirrors the key set and size its length, so LabelLive — called
	// per label source on every policy sweep of every shard — never touches
	// the mutex. Both are updated under mu; a stale "live" read is
	// conservative (labels only go live→dead).
	size atomic.Int64
	live sync.Map
}

func newCrossRegistry() *crossRegistry {
	return &crossRegistry{txns: make(map[model.TxnID]*crossEntry)}
}

var _ core.CrossTracker = (*crossRegistry)(nil)

// register adds a cross transaction with its participant set. It refuses
// (false) an ID it still tracks: a committed transaction's entry outlives
// its route until it retires, and overwriting it would lose its reach-arcs
// and clean marks. An ID whose earlier incarnation retired is fine: that
// incarnation's leftover labels name its own sub-nodes, never this one's,
// so nothing needs erasing first.
func (r *crossRegistry) register(id model.TxnID, parts []int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, tracked := r.txns[id]; tracked {
		return false
	}
	r.txns[id] = &crossEntry{parts: parts, clean: make([]bool, len(parts))}
	r.live.Store(id, struct{}{})
	r.size.Store(int64(len(r.txns)))
	return true
}

// removeLocked erases id's entry e and its arcs, then lets each registry
// successor retire in turn, since losing the arc from id may have zeroed its
// in-degree. e is out of the map before the cascade starts, so the cascade
// never touches e.out while it is walked. Caller holds r.mu.
func (r *crossRegistry) removeLocked(id model.TxnID, e *crossEntry) {
	for i := range e.in {
		if ie, ok := r.txns[i]; ok {
			delete(ie.out, id)
		}
	}
	for o := range e.out {
		if oe, ok := r.txns[o]; ok {
			delete(oe.in, id)
		}
	}
	delete(r.txns, id)
	r.live.Delete(id)
	r.size.Store(int64(len(r.txns)))
	for o := range e.out {
		r.maybeRetireLocked(o)
	}
}

// drop retires an aborted cross transaction immediately: its sub-nodes are
// removed from every shard graph, so it can never be on a future cycle.
// Labels it sourced die with it (pruned lazily by the shards). Dropping
// its arcs may unblock successors' retirement.
func (r *crossRegistry) drop(id model.TxnID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.txns[id]; ok {
		r.removeLocked(id, e)
	}
}

// maybeRetireLocked retires id iff no future global cycle can pass through
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
//     id later without touching id at all: X→…→id and id→…→Y both already
//     exist, and only the return path Y→…→X is new. Retiring id would have
//     deleted exactly the two arcs that make that veto fire.
//
// Condition 1 guarantees no new incoming paths, 2 no existing incoming path
// from anything still alive; together nothing can ever re-enter id, so its
// outgoing reach-arcs are dead weight and the entry can go. Retirement
// cascades: removing id's out-arcs may zero a successor's in-degree.
func (r *crossRegistry) maybeRetireLocked(id model.TxnID) {
	if e, ok := r.txns[id]; ok && e.cleanN == len(e.parts) && len(e.in) == 0 {
		r.removeLocked(id, e)
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
		e, ok := r.txns[id]
		if !ok {
			continue
		}
		for i, p := range e.parts {
			if p == shard && !e.clean[i] {
				e.clean[i] = true
				e.cleanN++
			}
		}
		r.maybeRetireLocked(id)
	}
}

// reachableLocked reports whether from reaches to through registry arcs.
// Caller holds r.mu; the registry graph is tiny (live cross transactions
// only), so a straight DFS with a map is fine.
func (r *crossRegistry) reachableLocked(from, to model.TxnID) bool {
	if from == to {
		return true
	}
	visited := map[model.TxnID]struct{}{from: {}}
	stack := []model.TxnID{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		e, ok := r.txns[n]
		if !ok {
			continue
		}
		for s := range e.out {
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
	se, sok := r.txns[src]
	de, dok := r.txns[dst]
	if !sok || !dok {
		// One side is retired: it can no longer be on a future cycle, so
		// the arc is irrelevant.
		return true
	}
	if _, ok := se.out[dst]; ok {
		return true
	}
	if r.reachableLocked(dst, src) {
		return false
	}
	if se.out == nil {
		se.out = make(map[model.TxnID]struct{})
	}
	if de.in == nil {
		de.in = make(map[model.TxnID]struct{})
	}
	se.out[dst] = struct{}{}
	de.in[src] = struct{}{}
	return true
}

// LabelLive implements core.CrossTracker: a label stays relevant while its
// transaction is registered. Lock-free (see the live mirror) because the
// policy sweeps of every shard call it per label per retained node.
func (r *crossRegistry) LabelLive(id model.TxnID) bool {
	if r.size.Load() == 0 {
		return false
	}
	_, ok := r.live.Load(id)
	return ok
}

// ---------------------------------------------------------------------------
// Engine-side protocol driver. All of these run on the submitting client's
// goroutine with ct.mu held, and apply each participant's part under that
// shard's lock, one shard at a time (shard.run); no shard code takes a
// ct.mu, so concurrent two-phase commits (even with overlapping
// participants) cannot deadlock.

// fanOut applies req(i) on every participant i it names (ok=true) and
// leaves each answer in ct.legs[i]. It visits the participants whose lock
// is free first, in one pass that never waits, then waits for the rest in
// participant order; a leg that must wait keeps its request meanwhile.
// req(i) may read leg i's previous answer. Caller holds ct.mu.
func (e *Engine) fanOut(ct *crossTxn, req func(i int) (request, bool)) {
	left := 0
	for i, p := range ct.parts {
		l := &ct.legs[i]
		r, want := req(i)
		l.req, l.ok = r, false
		if !want {
			continue
		}
		if ok, ran := e.shards[p].tryRun(&l.req); ran {
			l.ok = ok
			continue
		}
		l.waiting = true
		left++
	}
	for i := 0; left > 0; i++ {
		if l := &ct.legs[i]; l.waiting {
			l.ok, l.waiting = e.shards[ct.parts[i]].run(&l.req), false
			left--
		}
	}
}

// participantsOf returns the sorted distinct shards owning the footprint.
func (e *Engine) participantsOf(xs []model.Entity) []int {
	parts := make([]int, 0, 4)
	for _, x := range xs {
		p := e.partitionOf(x)
		dup := false
		for _, q := range parts {
			if q == p {
				dup = true
				break
			}
		}
		if !dup {
			parts = append(parts, p)
		}
	}
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && parts[j] < parts[j-1]; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}
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
	parts := e.participantsOf(step.Entities)
	ct := &crossTxn{id: step.Txn, parts: parts, legs: make([]leg, len(parts))}
	if !e.routes.storeNew(step.Txn, route{kind: routeCross, ct: ct, pri: pri}) {
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
	if !e.registry.register(step.Txn, ct.parts) {
		// The ID names a committed cross transaction the registry still
		// tracks. Nothing is begun yet, so dropping the route is the whole
		// rollback; done keeps a racing Engine.Abort off the old entry.
		ct.done = true
		e.routes.delete(step.Txn)
		return duplicateBegin(step)
	}
	e.fanOut(ct, func(i int) (request, bool) {
		ct.legs[i].step = step
		return request{kind: reqBeginSub, step: &ct.legs[i].step}, true
	})
	settle()
	failed := slices.IndexFunc(ct.legs, leg.failed)
	if failed < 0 {
		e.crossTxns.Add(1)
		e.accepted.Add(1)
		return answer(model.NoTxn, nil)
	}
	res, ok := ct.legs[failed].req.res, ct.legs[failed].ok
	applied := false
	e.fanOut(ct, func(i int) (request, bool) {
		if ct.legs[i].failed() {
			return request{}, false
		}
		applied = true
		return request{kind: reqAbortSub, txn: ct.id}, true
	})
	if applied && e.cfg.Log != nil {
		e.cfg.Log.MarkAborted(ct.id)
	}
	ct.done = true
	e.registry.drop(step.Txn)
	e.routes.delete(step.Txn)
	if !ok {
		return closedResult(step)
	}
	return res
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
// (fanOut), then retires the logical transaction: route, registry entry,
// trace exclusion, and the engine's logical abort counters. A shard that
// already lost its sub-node ignores the abort. Caller holds ct.mu.
func (e *Engine) finishCrossAbort(ct *crossTxn, skipShard int) {
	e.fanOut(ct, func(i int) (request, bool) {
		return request{kind: reqAbortSub, txn: ct.id}, ct.parts[i] != skipShard
	})
	ct.done = true
	e.registry.drop(ct.id)
	e.routes.delete(ct.id)
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
// (decisionDurable). Every outcome — commit, local-cycle vote, registry
// veto, context cancellation between PREPARE and decision, shard shutdown —
// resolves the transaction deterministically on all participants: a
// prepared-but-undecided sub-transaction never outlives the decision, and
// its pins are released on every shard.
func (e *Engine) commitCross(ctx context.Context, ct *crossTxn, final model.Step) Result {
	for _, x := range final.Entities {
		if !ct.participant(e.partitionOf(x)) {
			return e.crossMisroute(final, ct)
		}
	}
	e.fanOut(ct, func(i int) (request, bool) {
		l := &ct.legs[i]
		l.step = e.writeSubsetFor(final, ct.parts[i])
		return request{kind: reqPrepareSub, step: &l.step}, true
	})
	e.prepares.Add(int64(len(ct.parts)))
	for _, l := range ct.legs {
		if !l.ok {
			e.finishCrossAbort(ct, -1)
			return answer(ct.id, stepErr(final, ErrClosed))
		}
		if l.req.res.Err != nil {
			// A NO vote — a local cycle on that shard (ErrCycle) or a
			// registry veto (ErrCrossCycle) — or a vote the shard could not
			// cast. Abort everywhere: only this transaction dies; no
			// bystander is touched.
			e.finishCrossAbort(ct, -1)
			if l.req.res.Outcome() == OutcomeRejected {
				e.rejected.Add(1)
			}
			return answer(ct.id, l.req.res.Err)
		}
	}
	if hook := testHookPrepared; hook != nil {
		hook(ct.id)
	}
	if ctx.Err() != nil {
		// The client's context died while every participant sat prepared:
		// decide ABORT, releasing the pins and the registry entry, exactly
		// as a client abort would.
		e.rejected.Add(1)
		e.finishCrossAbort(ct, -1)
		return answer(ct.id, ctxErr(final, context.Cause(ctx)))
	}
	// Unanimous YES: commit everywhere. The write arcs are already in every
	// participant's graph (placed at prepare), so the decision only flips
	// sub-transactions to completed and releases pins. The first
	// participant's durable RecCommit is the commit point; if it cannot be
	// journaled, no evidence of the decision exists anywhere and the
	// transaction resolves as the abort recovery would presume.
	commit := request{kind: reqCommitSub, txn: ct.id}
	ok := e.shards[ct.parts[0]].run(&commit)
	if ok && commit.res.Err != nil && commit.res.Aborted == ct.id {
		// The commit point failed (journal dead on the first participant,
		// which already released its own sub): abort the siblings and
		// report the transaction aborted.
		e.finishCrossAbort(ct, ct.parts[0])
		return answer(ct.id, commit.res.Err)
	}
	if ok {
		commit = request{kind: reqCommitSub, txn: ct.id, decisionDurable: true}
		e.fanOut(ct, func(i int) (request, bool) { return commit, i > 0 })
		for _, l := range ct.legs[1:] {
			ok = ok && l.ok
		}
	}
	if !ok {
		// The engine is closing; surviving shards keep their prepared state
		// only until they shut down.
		ct.done = true
		e.registry.drop(ct.id)
		e.routes.delete(ct.id)
		return closedResult(final)
	}
	// Each participant filed its clean report as a debt when it committed;
	// the registry entry retires once the last one is paid.
	ct.done = true
	ct.committed = true
	e.routes.delete(ct.id)
	e.accepted.Add(1)
	e.completed.Add(1)
	return Result{Aborted: model.NoTxn, CompletedTxn: ct.id}
}

// crossClientAbort implements Engine.Abort for a cross transaction: it
// releases the sub-transactions (pins included) on all participants,
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
