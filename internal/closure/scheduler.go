package closure

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
)

// Scheduler is the basic conflict-graph scheduler re-implemented on the
// transitive-closure Graph. It supports the same step protocol as
// core.Scheduler and an optional greedy C1 deletion sweep.
//
// The closure answers every cycle test in O(|tails|) membership lookups
// (no DFS), and deletion from it is plain node removal — no
// predecessor×successor splicing. Condition C1, however, is defined over
// the reduced graph's ARC structure (tight paths through completed
// intermediates), which the closure deliberately forgets; so the
// scheduler also maintains the ordinary reduced graph as a shadow used
// only by the deletion sweep. Tests verify step-for-step equivalence with
// the DFS core.Scheduler under GreedyC1.
type Scheduler struct {
	// c serves the scheduler's cycle tests.
	c *Graph
	// shadow is the reduced conflict graph (arcs + splices), consulted
	// only by the C1 sweep.
	shadow  *graph.Graph
	txns    map[model.TxnID]*txn
	readers map[model.Entity]graph.NodeSet
	writers map[model.Entity]graph.NodeSet
	gc      bool
	stats   core.Stats
}

// txn is the closure scheduler's record of one transaction.
type txn struct {
	id     model.TxnID
	status model.Status
	access model.AccessSet
}

// NewScheduler returns an empty closure-backed scheduler; gc enables the
// greedy C1 sweep after completions and aborts.
func NewScheduler(gc bool) *Scheduler {
	return &Scheduler{
		c:       New(),
		shadow:  graph.New(),
		txns:    make(map[model.TxnID]*txn),
		readers: make(map[model.Entity]graph.NodeSet),
		writers: make(map[model.Entity]graph.NodeSet),
		gc:      gc,
	}
}

// Stats returns a snapshot of the counters.
func (s *Scheduler) Stats() core.Stats { return s.stats }

// Closure exposes the underlying closure graph (read-only).
func (s *Scheduler) Closure() *Graph { return s.c }

// Graph exposes the reduced-graph shadow (read-only).
func (s *Scheduler) Graph() *graph.Graph { return s.shadow }

// Status mirrors core.Scheduler.Status.
func (s *Scheduler) Status(id model.TxnID) model.Status {
	if t, ok := s.txns[id]; ok {
		return t.status
	}
	return model.StatusAborted
}

// Access mirrors core.Scheduler.Access.
func (s *Scheduler) Access(id model.TxnID) model.AccessSet {
	if t, ok := s.txns[id]; ok {
		return t.access
	}
	return nil
}

// NumCompleted returns the retained completed-transaction count.
func (s *Scheduler) NumCompleted() int {
	n := 0
	for _, t := range s.txns {
		if t.status == model.StatusCompleted {
			n++
		}
	}
	return n
}

// Apply processes one basic-model step.
func (s *Scheduler) Apply(step model.Step) (core.Result, error) {
	switch step.Kind {
	case model.KindBegin:
		if _, ok := s.txns[step.Txn]; ok {
			return core.Result{}, fmt.Errorf("closure: duplicate BEGIN for T%d", step.Txn)
		}
		s.c.AddNode(step.Txn)
		s.shadow.AddNode(step.Txn)
		s.txns[step.Txn] = &txn{id: step.Txn, status: model.StatusActive, access: make(model.AccessSet)}
		s.stats.Begins++
		s.stats.Accepted++
		return core.Result{Accepted: true, Aborted: model.NoTxn, CompletedTxn: model.NoTxn}, nil
	case model.KindRead:
		t, err := s.activeTxn(step.Txn)
		if err != nil {
			return core.Result{}, err
		}
		tails := make(graph.NodeSet)
		for w := range s.writers[step.Entity] {
			if w != t.id {
				tails.Add(w)
			}
		}
		// The closure decides acceptance in O(|tails|).
		if s.c.WouldCycleInto(t.id, tails) {
			return s.reject(t), nil
		}
		for w := range tails {
			s.c.AddArc(w, t.id)
			s.shadow.AddArc(w, t.id)
		}
		s.note(t, step.Entity, model.ReadAccess)
		s.stats.Reads++
		s.stats.Accepted++
		return core.Result{Accepted: true, Aborted: model.NoTxn, CompletedTxn: model.NoTxn}, nil
	case model.KindWriteFinal:
		t, err := s.activeTxn(step.Txn)
		if err != nil {
			return core.Result{}, err
		}
		tails := make(graph.NodeSet)
		for _, x := range step.Entities {
			for r := range s.readers[x] {
				if r != t.id {
					tails.Add(r)
				}
			}
			for w := range s.writers[x] {
				if w != t.id {
					tails.Add(w)
				}
			}
		}
		if s.c.WouldCycleInto(t.id, tails) {
			return s.reject(t), nil
		}
		for u := range tails {
			s.c.AddArc(u, t.id)
			s.shadow.AddArc(u, t.id)
		}
		for _, x := range step.Entities {
			s.note(t, x, model.WriteAccess)
		}
		t.status = model.StatusCompleted
		s.stats.Writes++
		s.stats.Accepted++
		s.stats.Completed++
		res := core.Result{Accepted: true, Aborted: model.NoTxn, CompletedTxn: t.id}
		s.sweep(&res)
		return res, nil
	default:
		return core.Result{}, fmt.Errorf("closure: step kind %v not part of the basic model", step.Kind)
	}
}

func (s *Scheduler) activeTxn(id model.TxnID) (*txn, error) {
	t, ok := s.txns[id]
	if !ok {
		return nil, fmt.Errorf("closure: step for unknown transaction T%d", id)
	}
	if t.status != model.StatusActive {
		return nil, fmt.Errorf("closure: step for %v transaction T%d", t.status, id)
	}
	return t, nil
}

func (s *Scheduler) note(t *txn, x model.Entity, a model.Access) {
	t.access.Note(x, a)
	idx := s.readers
	if a == model.WriteAccess {
		idx = s.writers
	}
	set, ok := idx[x]
	if !ok {
		set = make(graph.NodeSet)
		idx[x] = set
	}
	set.Add(t.id)
}

func (s *Scheduler) reject(t *txn) core.Result {
	s.forget(t.id)
	s.c.DeleteNode(t.id)      // aborts drop reachability through the node...
	s.shadow.RemoveNode(t.id) // ...in both structures
	delete(s.txns, t.id)
	s.stats.Rejected++
	s.stats.Aborts++
	res := core.Result{Accepted: false, Aborted: t.id, CompletedTxn: model.NoTxn}
	s.sweep(&res)
	return res
}

func (s *Scheduler) forget(id model.TxnID) {
	t := s.txns[id]
	if t == nil {
		return
	}
	for x, a := range t.access {
		delete(s.readers[x], id)
		if len(s.readers[x]) == 0 {
			delete(s.readers, x)
		}
		if a == model.WriteAccess {
			delete(s.writers[x], id)
			if len(s.writers[x]) == 0 {
				delete(s.writers, x)
			}
		}
	}
}

// CheckC1 evaluates condition C1 on the reduced-graph shadow.
func (s *Scheduler) CheckC1(ti model.TxnID) bool {
	ok, _ := core.CheckC1(s, s.shadow, ti)
	return ok
}

// sweep greedily deletes C1-satisfying completed transactions (if gc).
// Deletion is the paper's remark in action: the closure just drops the
// node (reachability through it is already recorded); only the shadow
// performs the splice.
func (s *Scheduler) sweep(res *core.Result) {
	if !s.gc {
		return
	}
	for {
		// Scan candidates in ascending ID order, matching GreedyC1 on the
		// DFS scheduler: greedy deletion is order-sensitive, so a random
		// map order would (rarely) retain a different set.
		var ids []model.TxnID
		for id, t := range s.txns {
			if t.status == model.StatusCompleted {
				ids = append(ids, id)
			}
		}
		slices.Sort(ids)
		progress := false
		for _, id := range ids {
			if s.CheckC1(id) {
				s.forget(id)
				s.c.DeleteNode(id)
				s.shadow.Reduce(id)
				delete(s.txns, id)
				s.stats.Deleted++
				res.Deleted = append(res.Deleted, id)
				progress = true
			}
		}
		if !progress {
			return
		}
	}
}
