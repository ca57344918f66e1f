package core

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/model"
)

// checkInvariants asserts the scheduler's structural invariants:
//  1. the (reduced) graph is acyclic at all times;
//  2. every graph node has a live transaction record and vice versa;
//  3. the per-entity reader/writer indexes agree exactly with the live
//     access sets (deletion = forgetting, abort = forgetting);
//  4. reduced-graph property (3) of Section 4: whenever two present
//     transactions performed conflicting accesses, an arc joins them.
func checkInvariants(t *testing.T, s *Scheduler) {
	t.Helper()
	if !s.g.Acyclic() {
		t.Fatal("invariant: graph must stay acyclic")
	}
	for _, id := range s.g.Nodes() {
		if s.txns[id] == nil {
			t.Fatalf("invariant: node T%d has no record", id)
		}
	}
	var completed []model.TxnID
	for id, tr := range s.txns {
		if !s.g.HasNode(id) {
			t.Fatalf("invariant: record T%d has no node", id)
		}
		if s.bySlot[tr.ref] != tr {
			t.Fatalf("invariant: slot %d of T%d is not bound to its record", tr.ref, id)
		}
		if tr.Status == model.StatusCompleted {
			completed = append(completed, id)
		}
	}
	slices.Sort(completed)
	if !slices.Equal(s.completed, completed) {
		t.Fatalf("invariant: completed index %v, records say %v", s.completed, completed)
	}
	bound := 0
	for _, tr := range s.bySlot {
		if tr != nil {
			bound++
		}
	}
	if bound != len(s.txns) {
		t.Fatalf("invariant: %d slots bound for %d records", bound, len(s.txns))
	}
	checkEntityRecords(t, s)
	// Conflicting present pairs are joined by an arc (in one direction).
	ids := s.g.Nodes()
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			ta, tb := s.txns[a], s.txns[b]
			conflict := false
			for _, ac := range ta.acc {
				if ac.a.Conflicts(accessOf(tb, ac.x)) {
					conflict = true
					break
				}
			}
			if conflict && !s.g.HasArc(a, b) && !s.g.HasArc(b, a) {
				t.Fatalf("invariant: conflicting pair T%d, T%d with no arc", a, b)
			}
		}
	}
}

// accessOf returns tr's strongest access to x.
func accessOf(tr *TxnState, x model.Entity) model.Access {
	if i := tr.find(x); i >= 0 {
		return tr.acc[i].a
	}
	return model.NoAccess
}

// checkEntityRecords asserts that the entity records agree exactly with the
// live access lists (deletion = forgetting, abort = forgetting):
//   - every access names the live record of its entity, once per entity;
//   - every reader or writer a record lists is a live transaction whose
//     access list says so, and every such access is listed;
//   - no record is kept that no present transaction touches and that holds
//     no current value, and the slab's slots are each either filed or free.
func checkEntityRecords(t *testing.T, s *Scheduler) {
	t.Helper()
	for id, tr := range s.txns {
		for i, ac := range tr.acc {
			if r, ok := s.ents.ids[ac.x]; !ok || r != ac.rec {
				t.Fatalf("invariant: T%d's access to %d names slot %d, the entity's record is %d (filed %v)", id, ac.x, ac.rec, r, ok)
			}
			if tr.find(ac.x) != i {
				t.Fatalf("invariant: T%d lists entity %d twice", id, ac.x)
			}
			e := &s.ents.recs[ac.rec]
			if ac.reader != slices.Contains(e.readers, tr.ref) {
				t.Fatalf("invariant: T%d reader of %d = %v, record readers %v", id, ac.x, ac.reader, e.readers)
			}
			if (ac.a == model.WriteAccess) != slices.Contains(e.writers, tr.ref) {
				t.Fatalf("invariant: T%d writes %d = %v, record writers %v", id, ac.x, ac.a == model.WriteAccess, e.writers)
			}
			if !ac.reader && ac.a != model.WriteAccess {
				t.Fatalf("invariant: T%d's access to %d lists it nowhere", id, ac.x)
			}
		}
	}
	listed := func(x model.Entity, rs []graph.Ref, write bool) {
		for _, r := range rs {
			id := s.g.IDOf(r)
			tr := s.txns[id]
			if tr == nil || tr.ref != r {
				t.Fatalf("invariant: record of %d lists slot %d, which holds no live transaction", x, r)
			}
			if i := tr.find(x); i < 0 || (write && tr.acc[i].a != model.WriteAccess) || (!write && !tr.acc[i].reader) {
				t.Fatalf("invariant: record of %d lists T%d (write=%v), its access list disagrees", x, id, write)
			}
		}
	}
	seen := map[int32]bool{}
	for x, r := range s.ents.ids {
		e := &s.ents.recs[r]
		if len(e.readers) == 0 && len(e.writers) == 0 && !e.written() {
			t.Fatalf("invariant: entity %d keeps an empty, never-written record", x)
		}
		listed(x, e.readers, false)
		listed(x, e.writers, true)
		seen[r] = true
	}
	for _, r := range s.ents.free {
		if seen[r] {
			t.Fatalf("invariant: slot %d is both filed and free", r)
		}
		seen[r] = true
	}
	if len(seen) != len(s.ents.recs) {
		t.Fatalf("invariant: %d slots filed or free of %d", len(seen), len(s.ents.recs))
	}
}

// TestSchedulerInvariantsProperty drives random step streams (with random
// policies) and checks the invariants after every step.
func TestSchedulerInvariantsProperty(t *testing.T) {
	policies := []Policy{nil, NoGC{}, GreedyC1{}, NoncurrentSafe{}, Lemma1Policy{}, MaxSafeExact{Budget: 5000}}
	f := func(seed int64) bool {
		s := randomDriver{seed: seed}.run(t, policies[int(uint64(seed)%uint64(len(policies)))])
		checkInvariants(t, s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// randomDriver replays a deterministic random basic-model workload,
// checking invariants at every step.
type randomDriver struct{ seed int64 }

func (d randomDriver) run(t *testing.T, p Policy) *Scheduler {
	t.Helper()
	s := NewScheduler(Config{Policy: p})
	// Reuse the randomScheduler plan logic but with invariant checks.
	rng := newRand(d.seed)
	type plan struct {
		id    model.TxnID
		reads []model.Entity
		write []model.Entity
	}
	var active []*plan
	next := model.TxnID(1)
	issued := 0
	for issued < 12 || len(active) > 0 {
		if issued < 12 && (len(active) == 0 || (len(active) < 4 && rng.Intn(3) == 0)) {
			pl := &plan{id: next}
			next++
			issued++
			for i := 0; i < 1+rng.Intn(3); i++ {
				pl.reads = append(pl.reads, model.Entity(rng.Intn(5)))
			}
			if rng.Intn(4) > 0 {
				pl.write = append(pl.write, model.Entity(rng.Intn(5)))
			}
			s.MustApply(model.Begin(pl.id))
			active = append(active, pl)
			checkInvariants(t, s)
			continue
		}
		i := rng.Intn(len(active))
		pl := active[i]
		var res Result
		if len(pl.reads) > 0 {
			res = s.MustApply(model.Read(pl.id, pl.reads[0]))
			pl.reads = pl.reads[1:]
		} else {
			res = s.MustApply(model.WriteFinal(pl.id, pl.write...))
			pl.reads, pl.write = nil, nil
			active = append(active[:i], active[i+1:]...)
		}
		if !res.Accepted {
			for j, q := range active {
				if q.id == pl.id {
					active = append(active[:j], active[j+1:]...)
					break
				}
			}
		}
		checkInvariants(t, s)
	}
	return s
}

// newRand isolates the math/rand import to one helper.
func newRand(seed int64) *randSource {
	return &randSource{state: uint64(seed)*2862933555777941757 + 3037000493}
}

// randSource is a tiny deterministic PRNG (xorshift*), avoiding any
// coupling to math/rand's generator across Go versions.
type randSource struct{ state uint64 }

func (r *randSource) next() uint64 {
	r.state ^= r.state >> 12
	r.state ^= r.state << 25
	r.state ^= r.state >> 27
	return r.state * 2685821657736338717
}

func (r *randSource) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}
