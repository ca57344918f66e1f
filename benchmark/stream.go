package main

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// op is one element of the local view of a ladder stream: what the rungs
// without two-phase commit (graph, core, store) replay.
type op struct {
	step model.Step
	part int
	// reap marks the governor emulation aborting step.Txn (no step applied).
	reap bool
	// accept is the reference decision, taken by the core rung while the
	// stream was materialised.
	accept bool
	// txnEnd marks the last op of a transaction (its commit or abort): the
	// point where a whole-transaction batch ends and the journal is flushed.
	txnEnd bool
	// swept lists the partitions swept after this op and what each sweep
	// deleted, in deletion order.
	swept []sweepRec
}

type sweepRec struct {
	part    int
	deleted []model.TxnID
}

// ladderStream is one workload's seeded step stream, materialised once so
// every rung replays exactly the same input. full is what the engine,
// client and serve rungs submit; local is the same stream as the graph,
// core and store rungs see it: cross-partition transactions that write
// are skipped (and counted), and the straggler — cross-partition but
// read-only — is replayed as one local reader per partition, so the
// long-reader-pins-predecessors scenario survives below the 2PC layer.
type ladderStream struct {
	full         []model.Step
	local        []op
	txns         int // transactions begun in full
	localTxns    int // of those, replayed by the local view
	skippedCross int
	// stepHops and batchHops are the shard round-trips the engine makes for
	// the stream submitted per step and per batch chunk.
	stepHops, batchHops int
	chunk               int // steps per batch chunk
}

const stragBase = model.TxnID(1) << 55 // TxnIDs of the straggler's per-partition readers

// coreRung drives one core.Scheduler per partition the way a shard does:
// Apply per step, SweepNow once enough completions accumulated. The same
// type materialises the stream (feeding decisions back to the generator)
// and is the timed core rung.
type coreRung struct {
	scheds     []*core.Scheduler
	since      []int
	sweepEvery int
	curDeleted []model.TxnID // filled by OnDelete during a sweep
	log        *spanLog
	kApply     *spanKind
	kSweep     *spanKind

	steps, rejects    int64
	sweeps            int64
	candidates, freed int64
	sweepNS           int64
	sweepHist         hist
}

func policyOf(name string) func() core.Policy {
	if name == "nogc" {
		return nil
	}
	return func() core.Policy { return core.GreedyC1{} }
}

func newCoreRung(sp *spec, policy func() core.Policy, log *spanLog) *coreRung {
	c := &coreRung{sweepEvery: 8, log: log, kApply: log.kind("core.apply"), kSweep: log.kind("core.sweep")}
	c.scheds = make([]*core.Scheduler, sp.Shards)
	c.since = make([]int, sp.Shards)
	for i := range c.scheds {
		cfg := core.Config{SweepManual: true, OnDelete: func(id model.TxnID) { c.curDeleted = append(c.curDeleted, id) }}
		if policy != nil {
			cfg.Policy = policy()
		}
		c.scheds[i] = core.NewScheduler(cfg)
	}
	return c
}

// apply runs one step on its partition and reports the decision. A step
// for a transaction the scheduler no longer knows (it aborted earlier in
// the replay) counts as a reject.
func (c *coreRung) apply(part int, st model.Step) bool {
	var t0 int64
	if c.log != nil {
		t0 = now()
	}
	res, err := c.scheds[part].Apply(st)
	if c.log != nil {
		c.log.add(c.kApply, int64(st.Txn), 0, t0, now())
	}
	c.steps++
	if err != nil || !res.Accepted {
		c.rejects++
		if err == nil {
			c.since[part]++
		}
		return false
	}
	if res.CompletedTxn != model.NoTxn {
		c.since[part]++
	}
	return true
}

func (c *coreRung) abort(part int, id model.TxnID) {
	if c.scheds[part].AbortTxn(id) == nil {
		c.since[part]++
	}
}

// sweep runs the policy on one partition now.
func (c *coreRung) sweep(part int) []model.TxnID {
	s := c.scheds[part]
	c.curDeleted = c.curDeleted[:0]
	c.candidates += int64(s.NumCompleted())
	t0 := now()
	s.SweepNow()
	t1 := now()
	c.log.add(c.kSweep, 0, 0, t0, t1)
	c.sweepHist.record(t1 - t0)
	c.sweepNS += t1 - t0
	c.sweeps++
	c.freed += int64(len(c.curDeleted))
	c.since[part] = 0
	return c.curDeleted
}

// due reports whether the engine's cadence would sweep part now.
func (c *coreRung) due(part int) bool {
	return c.since[part] >= c.sweepEvery
}

func (c *coreRung) retained() int {
	n := 0
	for _, s := range c.scheds {
		n += s.NumCompleted()
	}
	return n
}

func (c *coreRung) merged() core.Stats {
	var m core.Stats
	for _, s := range c.scheds {
		m.Merge(s.Stats())
	}
	return m
}

func (c *coreRung) numNodes() int {
	n := 0
	for _, s := range c.scheds {
		n += s.Graph().NumNodes()
	}
	return n
}

// replay runs the local view through the rung, sweeping exactly where the
// materialising run swept, and returns how many decisions differ from the
// reference.
func (c *coreRung) replay(ops []op) (mismatch int64) {
	for i := range ops {
		o := &ops[i]
		if o.reap {
			c.abort(o.part, o.step.Txn)
		} else if c.apply(o.part, o.step) != o.accept {
			mismatch++
		}
		for _, sw := range o.swept {
			c.sweep(sw.part)
		}
	}
	return mismatch
}

// ladderGen is the generator behind a ladder stream: segments for the
// embedded workload (a fresh straggler each), one long stream otherwise.
func ladderGen(sp *spec, seed int64) (next func() (model.Step, bool), notify func(model.TxnID), isStraggler func(model.Step) bool) {
	cfg := sp.Gen
	cfg.MaxActive = sp.LadderMaxActive
	cfg.BaseTxnID = 1 << 30
	if sp.SegmentTxns == 0 {
		cfg.Seed, cfg.Txns = seed, sp.LadderTxns
		g := workload.New(cfg)
		return g.Next, g.NotifyAbort, func(model.Step) bool { return false }
	}
	seg, segs := 0, (sp.LadderTxns+sp.SegmentTxns-1)/sp.SegmentTxns
	var g *workload.Gen
	var segBase model.TxnID
	roll := func() {
		c := cfg
		c.Seed = seed*1000003 + int64(seg)
		c.Txns = sp.SegmentTxns
		segBase = cfg.BaseTxnID + model.TxnID(seg)<<20
		c.BaseTxnID = segBase
		g = workload.New(c)
		seg++
	}
	roll()
	next = func() (model.Step, bool) {
		for {
			if st, ok := g.Next(); ok {
				return st, true
			}
			if seg >= segs {
				return model.Step{}, false
			}
			roll()
		}
	}
	// The straggler is the first transaction a segment issues.
	return next, func(id model.TxnID) { g.NotifyAbort(id) }, func(st model.Step) bool { return st.Txn == segBase }
}

// materialise draws the stream from the generator, deciding every local
// step on a reference core rung (whose rejections feed back to the
// generator, as a session's would) and emulating the retention governor:
// when the partitions together retain RetentionWatermark completed
// transactions, the live straggler is aborted and everything is swept.
func materialise(sp *spec, seed int64) *ladderStream {
	ls := &ladderStream{chunk: 5}
	if sp.BatchSteps > 0 {
		ls.chunk = sp.BatchSteps
	}
	next, notify, isStraggler := ladderGen(sp, seed)
	ref := newCoreRung(sp, policyOf(sp.Policy), nil)
	partOf := map[model.TxnID]int{} // live local transactions
	cross := map[model.TxnID]bool{} // live cross transactions that write
	strag := model.NoTxn            // live straggler
	stragN := 0                     // stragglers begun: each gets its own reader IDs
	stragPart := func(p int) model.TxnID { return stragBase + model.TxnID(stragN*sp.Shards+p) }
	part := func(x model.Entity) int { return int(uint32(x)) % sp.Shards }

	emit := func(o op) *op {
		ls.local = append(ls.local, o)
		return &ls.local[len(ls.local)-1]
	}
	// A shard sweeps between the batches it is handed, so the reference
	// sweeps where a submitted chunk ends (after every step when the door
	// submits steps one by one).
	sweepDue := func(o *op) {
		if !sp.perStep() && len(ls.full)%ls.chunk != 0 {
			return
		}
		for p := range ref.scheds {
			if ref.due(p) {
				o.swept = append(o.swept, sweepRec{p, append([]model.TxnID(nil), ref.sweep(p)...)})
			}
		}
	}
	for {
		st, ok := next()
		if !ok {
			break
		}
		ls.full = append(ls.full, st)
		switch {
		case st.Kind == model.KindBegin && isStraggler(st):
			ls.txns++
			ls.localTxns++
			strag = st.Txn
			stragN++
			for p := 0; p < sp.Shards; p++ {
				o := emit(op{step: model.Begin(stragPart(p)), part: p})
				o.accept = ref.apply(p, o.step)
			}
		case st.Txn == strag && st.Kind == model.KindRead:
			p := part(st.Entity)
			o := emit(op{step: model.Read(stragPart(p), st.Entity), part: p})
			if o.accept = ref.apply(p, o.step); !o.accept {
				// One reader died; the straggler as a whole is dead.
				for q := 0; q < sp.Shards; q++ {
					if q != p {
						emit(op{step: model.Step{Txn: stragPart(q)}, part: q, reap: true})
						ref.abort(q, stragPart(q))
					}
				}
				notify(strag)
				strag = model.NoTxn
			}
			sweepDue(&ls.local[len(ls.local)-1])
		case st.Txn == strag:
			for p := 0; p < sp.Shards; p++ {
				o := emit(op{step: model.WriteFinal(stragPart(p)), part: p, txnEnd: p == sp.Shards-1})
				o.accept = ref.apply(p, o.step)
			}
			strag = model.NoTxn
			sweepDue(&ls.local[len(ls.local)-1])
		case st.Kind == model.KindBegin:
			ls.txns++
			home := part(st.Entities[0])
			spans := false
			for _, x := range st.Entities[1:] {
				spans = spans || part(x) != home
			}
			if spans {
				cross[st.Txn] = true
				ls.skippedCross++
				continue
			}
			ls.localTxns++
			partOf[st.Txn] = home
			o := emit(op{step: st, part: home})
			o.accept = ref.apply(home, st)
		case cross[st.Txn]:
			if st.Kind == model.KindWriteFinal {
				delete(cross, st.Txn)
			}
		default:
			p, live := partOf[st.Txn]
			if !live {
				continue // the tail of a transaction the reference already aborted
			}
			o := emit(op{step: st, part: p})
			o.accept = ref.apply(p, st)
			if !o.accept {
				notify(st.Txn)
			}
			if !o.accept || st.Kind == model.KindWriteFinal {
				o.txnEnd = true
				delete(partOf, st.Txn)
			}
			sweepDue(o)
		}
		if sp.RetentionWatermark > 0 && strag != model.NoTxn && ref.retained() >= sp.RetentionWatermark {
			var o *op
			for p := 0; p < sp.Shards; p++ {
				o = emit(op{step: model.Step{Txn: stragPart(p)}, part: p, reap: true})
				ref.abort(p, stragPart(p))
			}
			for p := range ref.scheds {
				o.swept = append(o.swept, sweepRec{p, append([]model.TxnID(nil), ref.sweep(p)...)})
			}
			notify(strag)
			strag = model.NoTxn
		}
	}
	ls.countHops(sp)
	return ls
}

// countHops replays the engine's routing over the full stream: one shard
// round-trip per local step submitted alone, one per run of consecutive
// same-shard steps inside a batch, and for a cross-partition transaction
// one per participant at BEGIN, one per read, and a PREPARE plus a
// decision per participant at the final write.
func (ls *ladderStream) countHops(sp *spec) {
	part := func(x model.Entity) int { return int(uint32(x)) % sp.Shards }
	home := map[model.TxnID]int{}  // local transaction → shard
	parts := map[model.TxnID]int{} // cross transaction → participants
	cost := func(st model.Step) (shard, hops int) {
		if st.Kind == model.KindBegin {
			seen := map[int]bool{}
			for _, x := range st.Entities {
				seen[part(x)] = true
			}
			if len(seen) > 1 {
				parts[st.Txn] = len(seen)
				return -1, len(seen)
			}
			home[st.Txn] = part(st.Entities[0])
			return home[st.Txn], 1
		}
		if n, ok := parts[st.Txn]; ok {
			if st.Kind == model.KindWriteFinal {
				return -1, 2 * n
			}
			return -1, 1
		}
		return home[st.Txn], 1
	}
	lastShard := -1
	for i, st := range ls.full {
		shard, hops := cost(st)
		ls.stepHops += hops
		if i%ls.chunk == 0 {
			lastShard = -1
		}
		if shard < 0 || shard != lastShard {
			ls.batchHops += hops
		}
		lastShard = shard
	}
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func (ls *ladderStream) String() string {
	return fmt.Sprintf("%d steps, %d txns (%d local, %d cross skipped)", len(ls.full), ls.txns, ls.localTxns, ls.skippedCross)
}
