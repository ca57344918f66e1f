package core

import (
	"testing"

	"repro/internal/model"
)

// TestEntityRecordsBounded streams 100 000 distinct read-only entities
// through greedy-c1, three transactions in flight, each also writing one of
// four hot entities. A record is freed once no retained transaction touches
// its entity and it holds no current value, so at every step the records
// held stay within the written entities plus those the present
// transactions touch — not one per entity ever read.
func TestEntityRecordsBounded(t *testing.T) {
	const (
		distinct = 100_000
		hot      = 4
		inFlight = 3
	)
	s := NewScheduler(Config{Policy: GreedyC1{}})
	type plan struct {
		id   model.TxnID
		next int // steps issued: begin, two reads, the final write
	}
	var active []*plan
	written := map[model.Entity]bool{}
	touched := map[model.Entity]bool{}
	cold := model.Entity(hot)
	id := model.TxnID(1)
	for steps := 0; cold < hot+distinct || len(active) > 0; steps++ {
		if len(active) < inFlight && cold < hot+distinct {
			active = append(active, &plan{id: id})
			id++
		}
		i := steps % len(active)
		p := active[i]
		var step model.Step
		switch p.next {
		case 0:
			step = model.Begin(p.id)
		case 1, 2:
			step = model.Read(p.id, cold)
			cold++
		default:
			x := model.Entity(p.id % hot)
			step = model.WriteFinal(p.id, x)
			written[x] = true
			active = append(active[:i], active[i+1:]...)
		}
		p.next++
		if res := s.MustApply(step); !res.Accepted {
			t.Fatalf("%v rejected", step)
		}
		clear(touched)
		for _, tr := range s.txns {
			for _, ac := range tr.acc {
				touched[ac.x] = true
			}
		}
		if held, bound := len(s.ents.ids), len(written)+len(touched); held > bound {
			t.Fatalf("step %d (%v): %d entity records held, bound %d (%d written, %d touched by %d present transactions)",
				steps, step, held, bound, len(written), len(touched), len(s.txns))
		}
		if steps%10_000 == 0 {
			checkEntityRecords(t, s)
		}
	}
	if got := s.Stats().Deleted; got < distinct/4 {
		t.Fatalf("greedy-c1 deleted %d transactions, the stream is not exercising deletion", got)
	}
}
