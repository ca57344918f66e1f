// Condition C3 (Section 5): the necessary and sufficient condition for
// safely deleting a COMMITTED transaction in the multiple-write model.
//
//	(C3) For each set M of active transactions, for each entity x
//	accessed by Ti: if G − M⁺ has an FC-path from an active transaction
//	Tj to Ti, then it has also a path from Tj to some other transaction
//	Tk that accesses x at least as strongly as Ti.
//
// Here M⁺ is the set of transactions depending on M (we remove M ∪ M⁺,
// the effect of aborting M), an FC-path uses only Finished/Committed
// intermediate nodes, and the second path is unrestricted (its nodes may
// be of any type, even active). Theorem 6 proves deciding C3 is
// NP-complete — the checker below enumerates subsets M and is exponential
// in the number of active transactions by necessity.
package multiwrite

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/model"
)

// MaxC3Actives bounds the subset enumeration (2^a subsets).
const MaxC3Actives = 20

// C3Violation witnesses a C3 failure.
type C3Violation struct {
	Ti model.TxnID
	// M is the violating set of active transactions.
	M []model.TxnID
	// Tj is the active transaction with an FC-path to Ti in G − M⁺.
	Tj model.TxnID
	// X is the entity with no strongly-enough-accessed alternative Tk.
	X model.Entity
}

// Error implements error.
func (v *C3Violation) Error() string {
	return fmt.Sprintf("C3 violated for T%d: aborting M=%v leaves FC-path from T%d but no alternative path covering entity %d",
		v.Ti, v.M, v.Tj, v.X)
}

// CheckC3 decides whether deleting the committed transaction ti is safe.
// It returns an error if ti is not committed or if the active-transaction
// count exceeds MaxC3Actives.
func (s *Scheduler) CheckC3(ti model.TxnID) (bool, *C3Violation, error) {
	t, ok := s.txns[ti]
	if !ok || t.Status != model.StatusCommitted {
		return false, nil, fmt.Errorf("multiwrite: C3 applies to committed transactions; T%d is %v", ti, s.Status(ti))
	}
	actives := s.Active()
	if len(actives) > MaxC3Actives {
		return false, nil, fmt.Errorf("multiwrite: %d active transactions exceed MaxC3Actives=%d (the problem is NP-complete)", len(actives), MaxC3Actives)
	}
	access := t.Access
	// Enumerate all subsets M of actives, smallest first (violations tend
	// to need small M; the empty set covers the "no aborts" world).
	n := len(actives)
	for mask := 0; mask < 1<<uint(n); mask++ {
		m := make(graph.NodeSet)
		var mList []model.TxnID
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				m.Add(actives[i])
				mList = append(mList, actives[i])
			}
		}
		removed := s.dependentsClosure(m)
		if removed.Has(ti) {
			// ti is committed and cannot depend on actives; but be safe.
			continue
		}
		if ok, viol := s.checkC3ForRemoved(ti, access, removed); !ok {
			viol.M = mList
			return false, viol, nil
		}
	}
	return true, nil, nil
}

// checkC3ForRemoved verifies the C3 body for one removed-set world.
func (s *Scheduler) checkC3ForRemoved(ti model.TxnID, access model.AccessSet, removed graph.NodeSet) (bool, *C3Violation) {
	alive := func(id model.TxnID) bool { return !removed.Has(id) }
	// FC-ancestors of ti in G − removed: walk backwards through
	// Finished/Committed intermediates that are alive. The through-filter
	// governs expansion only; a collected endpoint must be alive too, hence
	// the alive test on each member.
	fcThrough := func(id model.TxnID) bool {
		if !alive(id) {
			return false
		}
		st := s.Status(id)
		return st == model.StatusFinished || st == model.StatusCommitted
	}
	for tj := range s.g.BackwardClosure(ti, fcThrough) {
		if !alive(tj) || s.Status(tj) != model.StatusActive {
			continue
		}
		// Unrestricted descendants of tj among alive nodes.
		desc := s.g.ForwardClosure(tj, alive)
		for x, need := range access {
			found := false
			for tk := range desc {
				if tk == ti || !alive(tk) {
					continue
				}
				if s.Access(tk).Get(x).AtLeastAsStrong(need) {
					found = true
					break
				}
			}
			if !found {
				return false, &C3Violation{Ti: ti, Tj: tj, X: x}
			}
		}
	}
	return true, nil
}

// DeleteIfSafe deletes ti iff C3 holds.
func (s *Scheduler) DeleteIfSafe(ti model.TxnID) (bool, error) {
	ok, _, err := s.CheckC3(ti)
	if err != nil || !ok {
		return false, err
	}
	return true, s.Delete(ti)
}

// Irreducible reports whether no committed transaction can be safely
// deleted (used by Theorem 6 part (i): deciding irreducibility is
// NP-complete).
func (s *Scheduler) Irreducible() (bool, error) {
	for _, id := range s.Committed() {
		ok, _, err := s.CheckC3(id)
		if err != nil {
			return false, err
		}
		if ok {
			return false, nil
		}
	}
	return true, nil
}
