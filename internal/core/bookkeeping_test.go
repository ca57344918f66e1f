package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/workload"
)

// The reference side of the access-bookkeeping differential: the
// scheduler's read/write sets and current values kept as six maps — per
// transaction an access set and the sequence number of each latest access,
// per entity its reader set, writer set, current writer and current write's
// sequence number — with a conflict graph of its own under Rules 1–3 and
// sweeps of its own through the generic conditions.go checkers. It shares no
// bookkeeping code with Scheduler, so every step can be held against it.

type refTxn struct {
	status           model.Status
	beginSeq, endSeq int64
	cross, prepared  bool
	access           model.AccessSet
	accessSeq        map[model.Entity]int64
}

type refBook struct {
	g            *graph.Graph
	seq          int64
	policy       string
	txns         map[model.TxnID]*refTxn
	readers      map[model.Entity]graph.NodeSet
	writers      map[model.Entity]graph.NodeSet
	lastWriteSeq map[model.Entity]int64
	lastWriter   map[model.Entity]model.TxnID
}

func newRefBook(policy string) *refBook {
	return &refBook{
		g:            graph.New(),
		policy:       policy,
		txns:         map[model.TxnID]*refTxn{},
		readers:      map[model.Entity]graph.NodeSet{},
		writers:      map[model.Entity]graph.NodeSet{},
		lastWriteSeq: map[model.Entity]int64{},
		lastWriter:   map[model.Entity]model.TxnID{},
	}
}

// Status implements StateView.
func (r *refBook) Status(id model.TxnID) model.Status {
	if t, ok := r.txns[id]; ok {
		return t.status
	}
	return model.StatusAborted
}

// Access implements StateView.
func (r *refBook) Access(id model.TxnID) model.AccessSet {
	if t, ok := r.txns[id]; ok {
		return t.access
	}
	return nil
}

func (r *refBook) begin(id model.TxnID, cross bool) {
	r.seq++
	r.g.AddNode(id)
	r.txns[id] = &refTxn{
		status: model.StatusActive, beginSeq: r.seq, cross: cross,
		access: model.AccessSet{}, accessSeq: map[model.Entity]int64{},
	}
}

// link runs the cycle test for a read (Rule 2) or a final write (Rule 3) of
// xs by id and, when it passes, adds the arcs and notes the accesses.
func (r *refBook) link(id model.TxnID, xs []model.Entity, a model.Access) bool {
	tails := graph.NodeSet{}
	for _, x := range xs {
		for w := range r.writers[x] {
			tails.Add(w)
		}
		if a == model.WriteAccess {
			for rd := range r.readers[x] {
				tails.Add(rd)
			}
		}
	}
	delete(tails, id)
	if r.g.ReachesAny(id, tails) {
		return false
	}
	for u := range tails {
		r.g.AddArc(u, id)
	}
	for _, x := range xs {
		r.note(id, x, a)
	}
	return true
}

func (r *refBook) note(id model.TxnID, x model.Entity, a model.Access) {
	t := r.txns[id]
	prev := t.access[x]
	if a > prev {
		t.access[x] = a
	}
	t.accessSeq[x] = r.seq
	idx := r.readers
	if a == model.WriteAccess {
		if prev == model.WriteAccess {
			return
		}
		idx = r.writers
	} else if prev != model.NoAccess {
		return
	}
	if idx[x] == nil {
		idx[x] = graph.NodeSet{}
	}
	idx[x].Add(id)
}

func (r *refBook) read(id model.TxnID, x model.Entity) bool {
	r.seq++
	if !r.link(id, []model.Entity{x}, model.ReadAccess) {
		r.abort(id)
		return false
	}
	return true
}

// writeFinal is id's final write of xs: a completion, or for a cross
// sub-transaction its vote, which holds it prepared when it passes.
func (r *refBook) writeFinal(id model.TxnID, xs []model.Entity) bool {
	r.seq++
	if !r.link(id, xs, model.WriteAccess) {
		r.abort(id)
		return false
	}
	t := r.txns[id]
	t.prepared, t.endSeq = true, r.seq
	if !t.cross {
		r.commitPrepared(id)
	}
	return true
}

func (r *refBook) commitPrepared(id model.TxnID) {
	t := r.txns[id]
	t.prepared, t.status = false, model.StatusCompleted
	for x, a := range t.access {
		if a == model.WriteAccess && t.endSeq > r.lastWriteSeq[x] {
			r.lastWriteSeq[x] = t.endSeq
			r.lastWriter[x] = id
		}
	}
}

func (r *refBook) forget(id model.TxnID) {
	for x, a := range r.txns[id].access {
		delete(r.readers[x], id)
		if len(r.readers[x]) == 0 {
			delete(r.readers, x)
		}
		if a == model.WriteAccess {
			delete(r.writers[x], id)
			if len(r.writers[x]) == 0 {
				delete(r.writers, x)
			}
		}
	}
	delete(r.txns, id)
}

func (r *refBook) abort(id model.TxnID) {
	r.forget(id)
	r.g.RemoveNode(id)
}

func (r *refBook) remove(id model.TxnID) {
	r.forget(id)
	r.g.Reduce(id)
}

func (r *refBook) noncurrent(id model.TxnID) bool {
	t, ok := r.txns[id]
	if !ok || t.status != model.StatusCompleted {
		return false
	}
	for x := range t.access {
		if t.accessSeq[x] >= r.lastWriteSeq[x] {
			return false
		}
	}
	return true
}

func (r *refBook) currentWriterPresent(id model.TxnID) bool {
	t, ok := r.txns[id]
	if !ok {
		return false
	}
	for x := range t.access {
		w, ok := r.lastWriter[x]
		if !ok || w == id || r.txns[w] == nil {
			return false
		}
	}
	return true
}

// candidates lists the retained completed transactions gate admits,
// ascending.
func (r *refBook) candidates(gate func(model.TxnID) bool) []model.TxnID {
	var ids []model.TxnID
	for id, t := range r.txns {
		if t.status == model.StatusCompleted && gate(id) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// sweep runs the named policy the way its built-in runs, but on the
// reference's maps and through the generic checkers, and returns what it
// deleted.
func (r *refBook) sweep(gate func(model.TxnID) bool) []model.TxnID {
	var deleted []model.TxnID
	del := func(id model.TxnID) {
		r.remove(id)
		deleted = append(deleted, id)
	}
	delSet := func(set graph.NodeSet) int {
		for _, id := range set.Sorted() {
			del(id)
		}
		return len(set)
	}
	switch r.policy {
	case "lemma1", "greedy-c1", "greedy-c1-newest":
		for progress := true; progress; {
			progress = false
			ids := r.candidates(gate)
			if r.policy == "greedy-c1-newest" {
				slices.Reverse(ids)
			}
			for _, id := range ids {
				var ok bool
				if r.policy == "lemma1" {
					ok = !HasActivePredecessor(r, r.g, id)
				} else {
					ok, _ = CheckC1(r, r.g, id)
				}
				if ok {
					del(id)
					progress = true
				}
			}
		}
	case "noncurrent-safe":
		for {
			batch := graph.NodeSet{}
			for _, id := range r.candidates(gate) {
				if r.noncurrent(id) && r.currentWriterPresent(id) {
					batch.Add(id)
				}
			}
			if len(batch) == 0 || delSet(batch) == 0 {
				break
			}
		}
	case "max-safe":
		for {
			best := MaxSafeSet(r, r.g, r.candidates(gate), 0)
			if len(best) == 0 || delSet(best) == 0 {
				break
			}
		}
	}
	return deleted
}

func (r *refBook) export() SchedulerState {
	st := SchedulerState{Seq: r.seq, Arcs: r.g.Arcs()}
	for id, t := range r.txns {
		snap := TxnSnap{
			ID: id, Status: t.status, BeginSeq: t.beginSeq, EndSeq: t.endSeq,
			IsCross: t.cross, Prepared: t.prepared,
		}
		for x, a := range t.access {
			snap.Access = append(snap.Access, AccessSnap{Entity: x, Access: a, Seq: t.accessSeq[x]})
		}
		slices.SortFunc(snap.Access, func(a, b AccessSnap) int { return int(a.Entity - b.Entity) })
		st.Txns = append(st.Txns, snap)
	}
	slices.SortFunc(st.Txns, func(a, b TxnSnap) int { return int(a.BeginSeq - b.BeginSeq) })
	for x, seq := range r.lastWriteSeq {
		st.Writes = append(st.Writes, EntityWrite{Entity: x, Seq: seq, Writer: r.lastWriter[x]})
	}
	slices.SortFunc(st.Writes, func(a, b EntityWrite) int { return int(a.Entity - b.Entity) })
	return st
}

// TestAccessBookkeepingDifferential runs the scheduler in lockstep with the
// six-map reference over seeded hot-spot streams with a straggler: cross
// sub-transactions through BeginCross/Apply/CommitPrepared (and
// AbortTxn when the coordinator decides ABORT), cycle rejections, client
// aborts, repeated reads and repeated entities in a write set, under every
// policy PolicyByName lists. Half the runs sweep after every completion or
// abort; the other half sweep by SweepNow every few terminations with a
// cross-arc tracker retiring decided transactions, the reference honouring
// the scheduler's label gate. After every step the exported state
// (access sets, sequence numbers, current values, arcs), the verdicts of
// Noncurrent, CurrentWriterPresent and CheckC1 for every retained
// transaction, and the set each sweep deleted must all agree.
func TestAccessBookkeepingDifferential(t *testing.T) {
	for _, name := range []string{"nogc", "lemma1", "greedy-c1", "greedy-c1-newest", "noncurrent-safe", "max-safe"} {
		mk, ok := PolicyByName(name)
		if !ok {
			t.Fatalf("PolicyByName(%q) unknown", name)
		}
		for _, manual := range []bool{false, true} {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("%s/manual=%v/seed=%d", name, manual, seed), func(t *testing.T) {
					var p Policy
					if mk != nil {
						p = mk()
					}
					bookkeepingLockstep(t, name, p, manual, seed)
				})
			}
		}
	}
}

func bookkeepingLockstep(t *testing.T, name string, p Policy, manual bool, seed int64) {
	tracker := scriptedTracker{}
	cfg := Config{Policy: p}
	if manual {
		cfg.SweepManual, cfg.Cross = true, tracker
	}
	s := NewScheduler(cfg)
	ref := newRefBook(name)
	gen := workload.New(workload.Config{
		Entities: 20, Txns: 70, MaxActive: 6, ReadsMin: 1, ReadsMax: 3,
		WritesMin: 0, WritesMax: 3, HotFrac: 0.25, Straggler: 10,
		RestartAborted: true, Seed: seed,
	})
	rng := newRand(seed + 100)
	cross := map[model.TxnID]bool{}
	var decided []model.TxnID
	steps, rejected, deletions, terminations := 0, 0, 0, 0

	check := func(what string) {
		t.Helper()
		if got, want := fmt.Sprintf("%+v", s.ExportState()), fmt.Sprintf("%+v", ref.export()); got != want {
			t.Fatalf("%s: exported state diverged\nscheduler %s\nreference %s", what, got, want)
		}
		checkEntityRecords(t, s)
		for id := range ref.txns {
			if got, want := s.Noncurrent(id), ref.noncurrent(id); got != want {
				t.Fatalf("%s: Noncurrent(T%d) = %v, reference %v", what, id, got, want)
			}
			if got, want := s.CurrentWriterPresent(id), ref.currentWriterPresent(id); got != want {
				t.Fatalf("%s: CurrentWriterPresent(T%d) = %v, reference %v", what, id, got, want)
			}
			got, _ := s.CheckC1(id)
			if want, _ := CheckC1(ref, ref.g, id); got != want {
				t.Fatalf("%s: CheckC1(T%d) = %v, reference %v", what, id, got, want)
			}
		}
	}
	// settle compares what an operation's sweep deleted: on the scheduler,
	// the retained completed transactions that are gone afterwards; on the
	// reference, what its own sweep deleted at the same point.
	settle := func(what string, before []model.TxnID, completed model.TxnID, sweep bool) {
		t.Helper()
		var want []model.TxnID
		if sweep && !manual && p != nil {
			want = ref.sweep(func(model.TxnID) bool { return true })
		}
		if completed != model.NoTxn {
			before = append(before, completed)
		}
		var got []model.TxnID
		for _, id := range before {
			if s.Status(id) != model.StatusCompleted {
				got = append(got, id)
			}
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: sweep deleted %v, reference %v", what, got, want)
		}
		deletions += len(got)
		if sweep {
			terminations++
		}
		if manual && p != nil && terminations >= 3 {
			terminations = 0
			gate := map[model.TxnID]bool{}
			for _, id := range s.CompletedTxns() {
				gate[id] = s.policyDeletable(id)
			}
			got := slices.Clone(s.SweepNow())
			want := ref.sweep(func(id model.TxnID) bool { return gate[id] })
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: SweepNow deleted %v, reference %v", what, got, want)
			}
			deletions += len(got)
		}
		check(what)
	}
	abort := func(id model.TxnID) {
		t.Helper()
		before := s.CompletedTxns()
		if err := s.AbortTxn(id); err != nil {
			t.Fatalf("abort T%d: %v", id, err)
		}
		ref.abort(id)
		gen.NotifyAbort(id)
		settle(fmt.Sprintf("abort T%d", id), before, model.NoTxn, true)
	}
	// decide compares one step's verdict.
	decide := func(step model.Step, what string, res Result, err error, want bool) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if res.Accepted != want {
			t.Fatalf("%s: accepted = %v, reference %v", what, res.Accepted, want)
		}
		if !want {
			rejected++
			gen.NotifyAbort(step.Txn)
		}
	}

	for {
		step, ok := gen.Next()
		if !ok {
			break
		}
		steps++
		before := s.CompletedTxns()
		what := step.String()
		switch step.Kind {
		case model.KindBegin:
			c := rng.Intn(4) == 0
			var res Result
			var err error
			if c {
				cross[step.Txn] = true
				res, err = s.BeginCross(step)
			} else {
				res, err = s.Apply(step)
			}
			ref.begin(step.Txn, c)
			decide(step, what, res, err, true)
			settle(what, before, model.NoTxn, false)
		case model.KindRead:
			res, err := s.Apply(step)
			want := ref.read(step.Txn, step.Entity)
			decide(step, what, res, err, want)
			settle(what, before, model.NoTxn, !want)
			if want && rng.Intn(6) == 0 {
				// The same read again: no new index entry, a later access
				// sequence number.
				before = s.CompletedTxns()
				res, err := s.Apply(step)
				decide(step, what+" again", res, err, ref.read(step.Txn, step.Entity))
				settle(what+" again", before, model.NoTxn, !res.Accepted)
			}
		case model.KindWriteFinal:
			if len(step.Entities) > 0 && rng.Intn(5) == 0 {
				step.Entities = append(slices.Clone(step.Entities), step.Entities[0])
				what = step.String()
			}
			res, err := s.Apply(step)
			want := ref.writeFinal(step.Txn, step.Entities)
			decide(step, what, res, err, want)
			settle(what, before, res.CompletedTxn, !cross[step.Txn] || !want)
			if !cross[step.Txn] || !want {
				break
			}
			if rng.Intn(4) == 0 {
				abort(step.Txn) // the coordinator decided ABORT
				break
			}
			before = s.CompletedTxns()
			res, err = s.CommitPrepared(step.Txn)
			if err != nil {
				t.Fatalf("commit T%d: %v", step.Txn, err)
			}
			ref.commitPrepared(step.Txn)
			settle(fmt.Sprintf("commit T%d", step.Txn), before, res.CompletedTxn, true)
			decided = append(decided, step.Txn)
		}
		// The environment: a client gives up on an active transaction now
		// and then, and the tracker retires decided cross transactions.
		if rng.Intn(30) == 0 {
			if act := s.ActiveTxns(); len(act) > 0 {
				if id := act[rng.Intn(len(act))]; !s.Prepared(id) {
					abort(id)
				}
			}
		}
		if manual && len(decided) > 0 && rng.Intn(5) == 0 {
			s.Retire(decided[0])
			decided = decided[1:]
		}
	}
	if rejected == 0 || (p != nil && deletions == 0) {
		t.Fatalf("workload too tame: %d steps, %d rejections, %d deletions", steps, rejected, deletions)
	}
}
