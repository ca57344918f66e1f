package model

import (
	"testing"
	"testing/quick"
)

func TestAccessOrdering(t *testing.T) {
	if !WriteAccess.AtLeastAsStrong(ReadAccess) {
		t.Fatal("write must be at least as strong as read")
	}
	if ReadAccess.AtLeastAsStrong(WriteAccess) {
		t.Fatal("read is not as strong as write")
	}
	if !ReadAccess.AtLeastAsStrong(ReadAccess) || !WriteAccess.AtLeastAsStrong(WriteAccess) {
		t.Fatal("reflexivity")
	}
	if !ReadAccess.AtLeastAsStrong(NoAccess) {
		t.Fatal("any access beats none")
	}
}

func TestConflicts(t *testing.T) {
	cases := []struct {
		a, b Access
		want bool
	}{
		{ReadAccess, ReadAccess, false},
		{ReadAccess, WriteAccess, true},
		{WriteAccess, ReadAccess, true},
		{WriteAccess, WriteAccess, true},
		{NoAccess, WriteAccess, false},
		{WriteAccess, NoAccess, false},
		{NoAccess, NoAccess, false},
	}
	for _, c := range cases {
		if got := c.a.Conflicts(c.b); got != c.want {
			t.Errorf("%v.Conflicts(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestConflictsSymmetric(t *testing.T) {
	f := func(a, b uint8) bool {
		x, y := Access(a%3), Access(b%3)
		return x.Conflicts(y) == y.Conflicts(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatusTerminated(t *testing.T) {
	if StatusActive.Terminated() || StatusAborted.Terminated() {
		t.Fatal("active/aborted are not terminated")
	}
	for _, s := range []Status{StatusCompleted, StatusFinished, StatusCommitted} {
		if !s.Terminated() {
			t.Fatalf("%v should be terminated", s)
		}
	}
}

func TestAccessSetNoteKeepsStrongest(t *testing.T) {
	as := make(AccessSet)
	if !as.Note(1, ReadAccess) {
		t.Fatal("first note should change the set")
	}
	if !as.Note(1, WriteAccess) {
		t.Fatal("upgrade should change the set")
	}
	if as.Note(1, ReadAccess) {
		t.Fatal("downgrade must not change the set")
	}
	if as.Get(1) != WriteAccess {
		t.Fatalf("Get = %v, want write", as.Get(1))
	}
	if as.Get(2) != NoAccess {
		t.Fatal("missing entity should report NoAccess")
	}
}

func TestAccessSetCloneIndependent(t *testing.T) {
	as := AccessSet{1: ReadAccess}
	c := as.Clone()
	c.Note(1, WriteAccess)
	c.Note(2, ReadAccess)
	if as.Get(1) != ReadAccess || as.Get(2) != NoAccess {
		t.Fatal("clone shares storage")
	}
}

func TestAccessSetEntities(t *testing.T) {
	as := AccessSet{3: ReadAccess, 7: WriteAccess}
	got := as.Entities()
	if len(got) != 2 {
		t.Fatalf("Entities len = %d", len(got))
	}
	seen := map[Entity]bool{}
	for _, x := range got {
		seen[x] = true
	}
	if !seen[3] || !seen[7] {
		t.Fatalf("Entities = %v", got)
	}
}

func TestStepConstructors(t *testing.T) {
	if s := Begin(5); s.Kind != KindBegin || s.Txn != 5 {
		t.Fatalf("Begin: %+v", s)
	}
	if s := Read(5, 9); s.Kind != KindRead || s.Entity != 9 {
		t.Fatalf("Read: %+v", s)
	}
	if s := WriteFinal(5, 1, 2); s.Kind != KindWriteFinal || len(s.Entities) != 2 {
		t.Fatalf("WriteFinal: %+v", s)
	}
	if s := Write(5, 9); s.Kind != KindWrite || s.Entity != 9 {
		t.Fatalf("Write: %+v", s)
	}
	if s := Finish(5); s.Kind != KindFinish {
		t.Fatalf("Finish: %+v", s)
	}
}

func TestStringers(t *testing.T) {
	// Smoke: every enum value renders, including out-of-range.
	for _, a := range []Access{NoAccess, ReadAccess, WriteAccess, Access(99)} {
		if a.String() == "" {
			t.Fatal("empty Access string")
		}
	}
	for _, s := range []Status{StatusActive, StatusCompleted, StatusFinished, StatusCommitted, StatusAborted, Status(99)} {
		if s.String() == "" {
			t.Fatal("empty Status string")
		}
	}
	for _, k := range []StepKind{KindBegin, KindRead, KindWriteFinal, KindWrite, KindFinish, KindCommit, KindAbort, StepKind(99)} {
		if k.String() == "" {
			t.Fatal("empty StepKind string")
		}
	}
	for _, st := range []Step{Begin(1), Read(1, 2), WriteFinal(1, 2), Write(1, 2), Finish(1), {Kind: KindCommit, Txn: 1}, {Kind: KindAbort, Txn: 1}, {Kind: StepKind(99), Txn: 1}} {
		if st.String() == "" {
			t.Fatal("empty Step string")
		}
	}
}
