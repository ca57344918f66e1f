package core

import (
	"fmt"
	"testing"

	"repro/internal/model"
)

// permissiveTracker admits every cross reach and retires nothing — the
// recovery-time stand-in for the engine registry.
type permissiveTracker struct{}

func (permissiveTracker) OnCrossReach(src, dst model.TxnID) bool { return true }

// TestExportRestoreSpliceArcs pins the reason snapshots are state
// exports, not step logs: after a deletion, the splice arcs through the
// deleted node are not derivable from the survivors' steps, yet restore
// must preserve them or a later step could close an invisible cycle.
func TestExportRestoreSpliceArcs(t *testing.T) {
	s := NewScheduler(Config{Policy: GreedyC1{}, SweepManual: true})
	// T1 writes x; T2 reads x (arc T1→T2); T3 overwrites x (arcs T1→T3,
	// T2→T3)... then delete what C1 allows and check the arcs survive a
	// round trip.
	s.MustApply(model.Begin(1))
	s.MustApply(model.WriteFinal(1, 1))
	s.MustApply(model.Begin(2))
	s.MustApply(model.Read(2, 1))
	s.MustApply(model.Begin(3))
	s.MustApply(model.WriteFinal(3, 1))
	deleted := s.SweepNow()

	exp := s.ExportState()
	restored, err := RestoreScheduler(Config{Policy: GreedyC1{}, SweepManual: true}, exp)
	if err != nil {
		t.Fatalf("RestoreScheduler: %v", err)
	}
	re := restored.ExportState()
	if fmt.Sprintf("%+v", re) != fmt.Sprintf("%+v", exp) {
		t.Fatalf("re-export mismatch after deletions %v:\n got %+v\nwant %+v", deleted, re, exp)
	}
	if restored.NumCompleted() != s.NumCompleted() || restored.NumActive() != s.NumActive() {
		t.Fatalf("counters diverged: completed %d/%d active %d/%d",
			restored.NumCompleted(), s.NumCompleted(), restored.NumActive(), s.NumActive())
	}
}

// TestExportRestorePrepared checks a prepared cross sub-transaction
// survives a round trip: still prepared, still counted prepared, still
// committable and abortable, and restored without labels (snapshots
// carry none: see persist.go).
func TestExportRestorePrepared(t *testing.T) {
	cfg := Config{Cross: permissiveTracker{}}
	s := NewScheduler(cfg)
	s.MustApply(model.Begin(1))
	s.MustApply(model.WriteFinal(1, 1))
	if _, err := s.BeginCross(model.Begin(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(model.Read(7, 1)); err != nil {
		t.Fatal(err)
	}
	vote, err := s.Apply(model.WriteFinal(7, 2))
	if err != nil || !vote.Accepted {
		t.Fatalf("vote: %+v err=%v", vote, err)
	}
	// A bystander downstream of the sub-node carries its label.
	s.MustApply(model.Begin(9))
	s.MustApply(model.Read(9, 2))
	if len(s.labelsOf(s.Txn(9).ref)) == 0 {
		t.Fatal("bystander T9 carries no label before export")
	}

	exp := s.ExportState()
	for _, branch := range []string{"commit", "abort"} {
		restored, err := RestoreScheduler(Config{Cross: permissiveTracker{}}, exp)
		if err != nil {
			t.Fatalf("RestoreScheduler: %v", err)
		}
		if !restored.Prepared(7) {
			t.Fatalf("%s: restored T7 not prepared", branch)
		}
		if restored.NumPrepared() != 1 {
			t.Fatalf("%s: restored T7 not counted prepared", branch)
		}
		if got := fmt.Sprintf("%+v", restored.ExportState()); got != fmt.Sprintf("%+v", exp) {
			t.Fatalf("%s: re-export mismatch", branch)
		}
		if restored.numLabeled != 0 {
			t.Fatalf("%s: restored scheduler carries labels on %d slots, want none", branch, restored.numLabeled)
		}
		switch branch {
		case "commit":
			res, err := restored.CommitPrepared(7)
			if err != nil || res.CompletedTxn != 7 {
				t.Fatalf("CommitPrepared after restore: %+v, %v", res, err)
			}
		case "abort":
			if err := restored.AbortTxn(7); err != nil {
				t.Fatalf("AbortTxn after restore: %v", err)
			}
		}
		if restored.NumPrepared() != 0 {
			t.Fatalf("%s: prepared count not released", branch)
		}
	}
}

// TestRestoreRejectsBadState checks the validation edges: cyclic graphs,
// duplicate IDs, arcs to missing nodes, prepared non-actives, an entity
// listed twice in one access set, and a current value at sequence 0.
func TestRestoreRejectsBadState(t *testing.T) {
	base := func() SchedulerState {
		s := NewScheduler(Config{})
		s.MustApply(model.Begin(1))
		s.MustApply(model.WriteFinal(1, 1))
		s.MustApply(model.Begin(2))
		s.MustApply(model.Read(2, 1))
		return s.ExportState()
	}

	bad := base()
	bad.Arcs = append(bad.Arcs, bad.Arcs[0])
	bad.Arcs[len(bad.Arcs)-1].From, bad.Arcs[len(bad.Arcs)-1].To = bad.Arcs[0].To, bad.Arcs[0].From
	if _, err := RestoreScheduler(Config{}, bad); err == nil {
		t.Fatal("cyclic state restored without error")
	}

	bad = base()
	bad.Txns = append(bad.Txns, bad.Txns[0])
	if _, err := RestoreScheduler(Config{}, bad); err == nil {
		t.Fatal("duplicate transaction restored without error")
	}

	bad = base()
	bad.Arcs = append(bad.Arcs, bad.Arcs[0])
	bad.Arcs[len(bad.Arcs)-1].To = 999
	if _, err := RestoreScheduler(Config{}, bad); err == nil {
		t.Fatal("arc to missing node restored without error")
	}

	bad = base()
	bad.Txns[0].Prepared = true // T1 is completed
	if _, err := RestoreScheduler(Config{}, bad); err == nil {
		t.Fatal("prepared completed transaction restored without error")
	}

	bad = base()
	bad.Txns[0].Access = append(bad.Txns[0].Access, bad.Txns[0].Access[0])
	if _, err := RestoreScheduler(Config{}, bad); err == nil {
		t.Fatal("an access list naming one entity twice restored without error")
	}

	bad = base()
	bad.Writes[0].Seq = 0 // sequence numbers start at 1
	if _, err := RestoreScheduler(Config{}, bad); err == nil {
		t.Fatal("a write at sequence number 0 restored without error")
	}
}

// TestRestoreNoncurrency checks Corollary 1's inputs survive: a restored
// noncurrent-safe scheduler still refuses to call a current transaction
// noncurrent, and still recognizes a noncurrent one.
func TestRestoreNoncurrency(t *testing.T) {
	s := NewScheduler(Config{})
	s.MustApply(model.Begin(1))
	s.MustApply(model.WriteFinal(1, 5))
	s.MustApply(model.Begin(2))
	s.MustApply(model.WriteFinal(2, 5)) // overwrites: T1 now noncurrent
	s.MustApply(model.Begin(3))
	s.MustApply(model.WriteFinal(3, 6)) // T3 current on 6

	restored, err := RestoreScheduler(Config{}, s.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Noncurrent(1) {
		t.Fatal("restored scheduler lost T1's noncurrency")
	}
	if restored.Noncurrent(2) || restored.Noncurrent(3) {
		t.Fatal("restored scheduler thinks a current transaction is noncurrent")
	}
}
