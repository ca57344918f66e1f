package core

import (
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/trace"
)

func capply(t *testing.T, c *Certifier, st model.Step) Result {
	t.Helper()
	res, err := c.Apply(st)
	if err != nil {
		t.Fatalf("Apply(%v): %v", st, err)
	}
	return res
}

func TestCertifierSerialSchedulesCertify(t *testing.T) {
	c := NewCertifier()
	for id := model.TxnID(1); id <= 3; id++ {
		capply(t, c, model.Begin(id))
		capply(t, c, model.Read(id, 0))
		res := capply(t, c, model.WriteFinal(id, 0))
		if !res.Accepted {
			t.Fatalf("serial transaction T%d must certify", id)
		}
	}
	if c.Graph().NumNodes() != 3 {
		t.Fatalf("graph nodes = %d", c.Graph().NumNodes())
	}
	if !c.Graph().Acyclic() {
		t.Fatal("certified graph must stay acyclic")
	}
}

func TestCertifierRejectsNonCSRInterleaving(t *testing.T) {
	// T1 reads x, T2 reads y, T1 writes y, T2 writes x: classic non-CSR.
	// T1 certifies first; then T2's certification must fail.
	c := NewCertifier()
	capply(t, c, model.Begin(1))
	capply(t, c, model.Begin(2))
	capply(t, c, model.Read(1, 0))
	capply(t, c, model.Read(2, 1))
	res1 := capply(t, c, model.WriteFinal(1, 1))
	if !res1.Accepted {
		t.Fatal("first certification must succeed")
	}
	res2 := capply(t, c, model.WriteFinal(2, 0))
	if res2.Accepted {
		t.Fatal("T2 must fail certification: T1->T2 (rw on y after... ) and T2->T1 arcs both exist")
	}
	if res2.Aborted != 2 {
		t.Fatalf("aborted = T%d", res2.Aborted)
	}
	if c.Graph().HasNode(2) {
		t.Fatal("failed certification must not leave a node")
	}
}

func TestCertifierActiveRunsFree(t *testing.T) {
	// Unlike the preventive scheduler, reads never abort anyone.
	c := NewCertifier()
	capply(t, c, model.Begin(1))
	capply(t, c, model.Read(1, 0))
	capply(t, c, model.Begin(2))
	capply(t, c, model.Read(2, 1))
	capply(t, c, model.WriteFinal(1, 1))
	// T2 can still read freely even what T1 wrote.
	res := capply(t, c, model.Read(2, 1))
	if !res.Accepted {
		t.Fatal("reads always run free under certification")
	}
}

func TestCertifierProtocolErrors(t *testing.T) {
	c := NewCertifier()
	capply(t, c, model.Begin(1))
	if _, err := c.Apply(model.Begin(1)); err == nil {
		t.Fatal("duplicate BEGIN")
	}
	if _, err := c.Apply(model.Read(9, 0)); err == nil {
		t.Fatal("unknown txn")
	}
	if _, err := c.Apply(model.Write(1, 0)); err == nil {
		t.Fatal("multiwrite kind must error")
	}
	capply(t, c, model.WriteFinal(1, 0))
	if _, err := c.Apply(model.Read(1, 0)); err == nil {
		t.Fatal("step after completion")
	}
}

// TestCertifierAcceptsSupersetOfPreventive: any transaction the
// preventive scheduler completes would also certify — on schedules where
// the preventive scheduler aborts nothing, both accept everything, and on
// random schedules certification accepts at least as many transactions.
func TestCertifierAcceptsAtLeastAsMany(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prev := NewScheduler(Config{})
		cert := NewCertifier()
		type plan struct {
			id    model.TxnID
			reads []model.Entity
			write []model.Entity
		}
		var act []*plan
		next := model.TxnID(1)
		issued := 0
		prevAborts, certAborts := 0, 0
		deadPrev := map[model.TxnID]bool{}
		deadCert := map[model.TxnID]bool{}
		for issued < 12 || len(act) > 0 {
			var st model.Step
			var donePlan int = -1
			if issued < 12 && (len(act) == 0 || rng.Intn(3) == 0) {
				p := &plan{id: next}
				next++
				issued++
				for i := 0; i < 1+rng.Intn(2); i++ {
					p.reads = append(p.reads, model.Entity(rng.Intn(4)))
				}
				p.write = []model.Entity{model.Entity(rng.Intn(4))}
				act = append(act, p)
				st = model.Begin(p.id)
			} else {
				i := rng.Intn(len(act))
				p := act[i]
				if len(p.reads) > 0 {
					st = model.Read(p.id, p.reads[0])
					p.reads = p.reads[1:]
				} else {
					st = model.WriteFinal(p.id, p.write...)
					donePlan = i
				}
			}
			if !deadPrev[st.Txn] {
				res, err := prev.Apply(st)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Accepted {
					deadPrev[st.Txn] = true
					prevAborts++
				}
			}
			if !deadCert[st.Txn] {
				res, err := cert.Apply(st)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Accepted {
					deadCert[st.Txn] = true
					certAborts++
				}
			}
			if donePlan >= 0 {
				act = append(act[:donePlan], act[donePlan+1:]...)
			}
			// Drop plans dead in BOTH schedulers (each scheduler skips its
			// own dead txns independently above).
			for i := len(act) - 1; i >= 0; i-- {
				if deadPrev[act[i].id] && deadCert[act[i].id] {
					act = append(act[:i], act[i+1:]...)
				}
			}
		}
		if cert.Stats().Completed < prev.Stats().Completed {
			t.Fatalf("seed %d: certification completed %d < preventive %d",
				seed, cert.Stats().Completed, prev.Stats().Completed)
		}
	}
}

// TestCertifierCertifiesExactlyTheAcyclic is the referee for the cycle
// test certify runs on the graph kernel. Over seeded random interleavings,
// every final write is judged against a graph built from scratch: the
// conflict graph of the certified transactions' steps plus the candidate's
// is the would-be graph, and the candidate must be rejected iff that graph
// has no topological order. After every step the accepted subschedule is
// CSR and the certifier's graph is its conflict graph, arc for arc.
func TestCertifierCertifiesExactlyTheAcyclic(t *testing.T) {
	rejected := 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewCertifier()
		var schedule []model.Step
		certified := map[model.TxnID]bool{}
		// subschedule restricts the schedule so far to the certified
		// transactions and, when it is not NoTxn, one candidate.
		subschedule := func(candidate model.TxnID) []model.Step {
			var out []model.Step
			for _, st := range schedule {
				if certified[st.Txn] || st.Txn == candidate {
					out = append(out, st)
				}
			}
			return out
		}
		type plan struct {
			id    model.TxnID
			reads int
		}
		var act []plan
		entity := func() model.Entity { return model.Entity(rng.Intn(5)) }
		for next := model.TxnID(1); next <= 30 || len(act) > 0; {
			var st model.Step
			if next <= 30 && (len(act) == 0 || rng.Intn(3) == 0) {
				act = append(act, plan{id: next, reads: rng.Intn(4)})
				st = model.Begin(next)
				next++
			} else {
				i := rng.Intn(len(act))
				if p := &act[i]; p.reads > 0 {
					p.reads--
					st = model.Read(p.id, entity())
				} else {
					st = model.WriteFinal(p.id, entity(), entity())
					act = append(act[:i], act[i+1:]...)
				}
			}
			schedule = append(schedule, st)
			res := capply(t, c, st)
			if st.Kind == model.KindWriteFinal {
				cyclic := trace.ConflictGraphOf(subschedule(st.Txn)).TopoOrder() == nil
				if res.Accepted == cyclic {
					t.Fatalf("seed %d: %v accepted=%v, would-be graph cyclic=%v", seed, st, res.Accepted, cyclic)
				}
				certified[st.Txn] = res.Accepted
				if !res.Accepted {
					rejected++
				}
			} else if !res.Accepted {
				t.Fatalf("seed %d: %v must run free", seed, st)
			}
			accepted := subschedule(model.NoTxn)
			if !trace.IsCSR(accepted) {
				t.Fatalf("seed %d: accepted subschedule is not CSR after %v", seed, st)
			}
			if want := trace.ConflictGraphOf(accepted); !c.Graph().Equal(want) {
				t.Fatalf("seed %d: after %v the certifier's graph is\n%vwant\n%v", seed, st, c.Graph(), want)
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no interleaving was rejected: the property was not exercised")
	}
}
