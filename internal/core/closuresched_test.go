// The closure-backed scheduler lives in internal/closure (a paper artefact
// outside the kernel packages). Its tests stay in this directory, as an
// external test package, so their names in the suite do not change; the
// lockstep test holds it to this package's DFS scheduler.
package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/closure"
	"repro/internal/core"
	"repro/internal/model"
)

// TestClosureSchedulerExample1 replays Example 1 and expects the same
// behaviour as the DFS scheduler with core.GreedyC1: one of T2/T3 retained.
func TestClosureSchedulerExample1(t *testing.T) {
	s := closure.NewScheduler(true)
	for _, st := range core.Example1Steps() {
		res, err := s.Apply(st)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted {
			t.Fatalf("step %v rejected", st)
		}
	}
	if got := s.NumCompleted(); got != 1 {
		t.Fatalf("retained = %d, want 1", got)
	}
	// Deletion was plain node removal on the closure: the active T1 must
	// still reach the surviving completed transaction.
	survivor := model.NoTxn
	for _, id := range []model.TxnID{core.Ex1T2, core.Ex1T3} {
		if s.Status(id) == model.StatusCompleted {
			survivor = id
		}
	}
	if survivor == model.NoTxn {
		t.Fatal("no survivor")
	}
	if !s.Closure().Reaches(core.Ex1T1, survivor) {
		t.Fatal("closure lost reachability after deletion")
	}
}

// TestClosureSchedulerLockstep runs random streams through the DFS
// scheduler and the closure scheduler (both with core.GreedyC1) and demands
// identical decisions, abort sets, and retention counts.
func TestClosureSchedulerLockstep(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dfs := core.NewScheduler(core.Config{Policy: core.GreedyC1{}})
		clo := closure.NewScheduler(true)
		type plan struct {
			id    model.TxnID
			reads []model.Entity
			write []model.Entity
		}
		var active []*plan
		next := model.TxnID(1)
		issued := 0
		deadDFS := map[model.TxnID]bool{}
		for issued < 30 || len(active) > 0 {
			var st model.Step
			var finished *plan
			if issued < 30 && (len(active) == 0 || (len(active) < 5 && rng.Intn(3) == 0)) {
				p := &plan{id: next}
				next++
				issued++
				for i := 0; i < 1+rng.Intn(3); i++ {
					p.reads = append(p.reads, model.Entity(rng.Intn(5)))
				}
				if rng.Intn(4) > 0 {
					p.write = append(p.write, model.Entity(rng.Intn(5)))
				}
				active = append(active, p)
				st = model.Begin(p.id)
			} else {
				i := rng.Intn(len(active))
				p := active[i]
				if len(p.reads) > 0 {
					st = model.Read(p.id, p.reads[0])
					p.reads = p.reads[1:]
				} else {
					st = model.WriteFinal(p.id, p.write...)
					finished = p
				}
			}
			r1, err1 := dfs.Apply(st)
			r2, err2 := clo.Apply(st)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("seed %d: protocol error mismatch at %v: %v vs %v", seed, st, err1, err2)
			}
			if err1 != nil {
				t.Fatalf("seed %d: %v", seed, err1)
			}
			if r1.Accepted != r2.Accepted {
				t.Fatalf("seed %d: decision mismatch at %v: dfs=%v closure=%v", seed, st, r1.Accepted, r2.Accepted)
			}
			if !r1.Accepted {
				deadDFS[st.Txn] = true
			}
			if !r1.Accepted || finished != nil {
				// Remove the plan (aborted or completed).
				for j, q := range active {
					if q.id == st.Txn {
						active = append(active[:j], active[j+1:]...)
						break
					}
				}
			}
			if dfs.NumCompleted() != clo.NumCompleted() {
				t.Fatalf("seed %d: retention mismatch after %v: dfs=%d closure=%d",
					seed, st, dfs.NumCompleted(), clo.NumCompleted())
			}
		}
		s1, s2 := dfs.Stats(), clo.Stats()
		if s1.Aborts != s2.Aborts || s1.Completed != s2.Completed || s1.Deleted != s2.Deleted {
			t.Fatalf("seed %d: stats mismatch: dfs=%+v closure=%+v", seed, s1, s2)
		}
	}
}

func TestClosureSchedulerProtocolErrors(t *testing.T) {
	s := closure.NewScheduler(false)
	if _, err := s.Apply(model.Begin(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(model.Begin(1)); err == nil {
		t.Fatal("duplicate BEGIN")
	}
	if _, err := s.Apply(model.Read(9, 0)); err == nil {
		t.Fatal("unknown txn")
	}
	if _, err := s.Apply(model.Write(1, 0)); err == nil {
		t.Fatal("multiwrite kind")
	}
	if _, err := s.Apply(model.WriteFinal(1)); err != nil {
		t.Fatal("read-only completion")
	}
	if _, err := s.Apply(model.Read(1, 0)); err == nil {
		t.Fatal("step after completion")
	}
}

func TestClosureSchedulerNoGCKeepsAll(t *testing.T) {
	s := closure.NewScheduler(false)
	for _, st := range core.Example1Steps() {
		if _, err := s.Apply(st); err != nil {
			t.Fatal(err)
		}
	}
	if s.NumCompleted() != 2 {
		t.Fatalf("retained = %d, want 2", s.NumCompleted())
	}
	if s.Access(core.Ex1T2).Get(core.Ex1X) != model.WriteAccess {
		t.Fatal("access records")
	}
	if s.Graph().NumArcs() != 3 {
		t.Fatalf("shadow arcs = %d, want 3", s.Graph().NumArcs())
	}
}
