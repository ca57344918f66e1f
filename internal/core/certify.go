// The certification (optimistic) variant of the conflict-graph scheduler
// (paper, Section 2): "the conflict graph of the completed transactions is
// maintained. The active transactions are left free to run. When an active
// transaction is ready to terminate, a certification phase takes place, in
// which it is tested whether the transaction can be added to the conflict
// graph without creating cycles; if so, it is certified and completed,
// otherwise it aborts."
//
// The paper restricts its deletion analysis to the preventive variant
// because "the issues are very similar in the two cases"; we implement the
// certifier for the E12 comparison of acceptance behaviour and graph size
// (it does not support deletion policies — active transactions are not in
// its graph, so C1's quantifier over active tight predecessors would be
// vacuous and misleading).
package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/model"
)

// certEvent is a timestamped access used to orient conflict arcs at
// certification time.
type certEvent struct {
	txn    model.TxnID
	access model.Access
	seq    int64
}

// Certifier is the optimistic conflict-graph scheduler.
type Certifier struct {
	g *graph.Graph
	// events lists the accesses of certified transactions per entity, in
	// execution order.
	events map[model.Entity][]certEvent
	// pending holds the recorded accesses of active transactions.
	pending map[model.TxnID][]pendingAccess
	status  map[model.TxnID]model.Status
	seq     int64
	stats   Stats
}

type pendingAccess struct {
	entity model.Entity
	access model.Access
	seq    int64
}

// NewCertifier returns an empty certification scheduler.
func NewCertifier() *Certifier {
	return &Certifier{
		g:       graph.New(),
		events:  make(map[model.Entity][]certEvent),
		pending: make(map[model.TxnID][]pendingAccess),
		status:  make(map[model.TxnID]model.Status),
	}
}

// Graph returns the conflict graph of certified transactions (read-only).
func (c *Certifier) Graph() *graph.Graph { return c.g }

// Stats returns a snapshot of the counters.
func (c *Certifier) Stats() Stats { return c.stats }

// Apply processes a basic-model step. BEGIN and reads always succeed (the
// active transaction runs free); the final write triggers certification.
func (c *Certifier) Apply(step model.Step) (Result, error) {
	switch step.Kind {
	case model.KindBegin:
		if _, ok := c.status[step.Txn]; ok {
			return Result{}, fmt.Errorf("core: duplicate BEGIN for T%d", step.Txn)
		}
		c.seq++
		c.status[step.Txn] = model.StatusActive
		c.pending[step.Txn] = nil
		c.stats.Begins++
		c.stats.Accepted++
		return Result{Accepted: true, Aborted: model.NoTxn, CompletedTxn: model.NoTxn}, nil
	case model.KindRead:
		if err := c.requireActive(step.Txn); err != nil {
			return Result{}, err
		}
		c.seq++
		c.pending[step.Txn] = append(c.pending[step.Txn], pendingAccess{step.Entity, model.ReadAccess, c.seq})
		c.stats.Reads++
		c.stats.Accepted++
		return Result{Accepted: true, Aborted: model.NoTxn, CompletedTxn: model.NoTxn}, nil
	case model.KindWriteFinal:
		if err := c.requireActive(step.Txn); err != nil {
			return Result{}, err
		}
		c.seq++
		for _, x := range step.Entities {
			c.pending[step.Txn] = append(c.pending[step.Txn], pendingAccess{x, model.WriteAccess, c.seq})
		}
		return c.certify(step)
	default:
		return Result{}, fmt.Errorf("core: step kind %v not part of the basic model", step.Kind)
	}
}

func (c *Certifier) requireActive(id model.TxnID) error {
	st, ok := c.status[id]
	if !ok {
		return fmt.Errorf("core: step for unknown transaction T%d", id)
	}
	if st != model.StatusActive {
		return fmt.Errorf("core: step for %v transaction T%d", st, id)
	}
	return nil
}

// certify attempts to add the transaction to the certified graph.
func (c *Certifier) certify(step model.Step) (Result, error) {
	id := step.Txn
	// The transaction's whole history induces an arc for each pair of
	// conflicting accesses against a certified transaction, from the
	// earlier access's transaction to the later's — so every arc touches
	// the fresh node id. Mark the tails of the arcs into id and link id to
	// the heads of the arcs out of it: the batch closes a cycle iff id then
	// reaches a tail. Rejecting removes the node and its tentative arcs.
	r := c.g.AddNodeRef(id)
	c.g.ResetTargets()
	for _, pa := range c.pending[id] {
		for _, ev := range c.events[pa.entity] {
			if ev.txn == id || !pa.access.Conflicts(ev.access) {
				continue
			}
			if ev.seq < pa.seq {
				c.g.MarkTarget(c.g.Ref(ev.txn))
			} else {
				c.g.AddArc(id, ev.txn)
			}
		}
	}
	if c.g.ReachesAnyTarget(r) {
		c.g.RemoveRef(r)
		delete(c.pending, id)
		c.status[id] = model.StatusAborted
		c.stats.Rejected++
		c.stats.Aborts++
		return Result{Accepted: false, Aborted: id, CompletedTxn: model.NoTxn}, nil
	}
	c.g.LinkTargetsTo(r)
	for _, pa := range c.pending[id] {
		c.events[pa.entity] = append(c.events[pa.entity], certEvent{id, pa.access, pa.seq})
	}
	delete(c.pending, id)
	c.status[id] = model.StatusCompleted
	c.stats.Writes++
	c.stats.Accepted++
	c.stats.Completed++
	if n := c.g.NumNodes(); n > c.stats.PeakNodes {
		c.stats.PeakNodes = n
	}
	if a := c.g.NumArcs(); a > c.stats.PeakArcs {
		c.stats.PeakArcs = a
	}
	return Result{Accepted: true, Aborted: model.NoTxn, CompletedTxn: id}, nil
}
