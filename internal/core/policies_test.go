package core

import (
	"testing"

	"repro/internal/model"
)

func TestNoGCKeepsEverything(t *testing.T) {
	s := Example1Scheduler(Config{Policy: NoGC{}})
	if s.NumCompleted() != 2 {
		t.Fatalf("NoGC deleted something: %d completed retained", s.NumCompleted())
	}
}

func TestGreedyC1DeletesExactlyOneOfExample1(t *testing.T) {
	s := Example1Scheduler(Config{Policy: GreedyC1{}})
	// Both T2 and T3 satisfy C1 but only one can go (deleting one
	// disables the other).
	if got := s.NumCompleted(); got != 1 {
		t.Fatalf("retained completed = %d, want 1", got)
	}
	// Oldest-first deletes T2 and keeps T3.
	if s.Txn(Ex1T3) == nil || s.Txn(Ex1T2) != nil {
		t.Fatalf("oldest-first should delete T2 and keep T3; kept: %v", s.CompletedTxns())
	}
}

func TestGreedyC1NewestFirstOrder(t *testing.T) {
	s := Example1Scheduler(Config{Policy: GreedyC1{NewestFirst: true}})
	if s.Txn(Ex1T2) == nil || s.Txn(Ex1T3) != nil {
		t.Fatalf("newest-first should delete T3 and keep T2; kept: %v", s.CompletedTxns())
	}
}

func TestGreedyC1DeletesAllWhenNoActives(t *testing.T) {
	s := NewScheduler(Config{Policy: GreedyC1{}})
	for id := model.TxnID(1); id <= 5; id++ {
		s.MustApply(model.Begin(id))
		s.MustApply(model.Read(id, model.Entity(id)))
		s.MustApply(model.WriteFinal(id, model.Entity(id)))
	}
	if got := s.NumCompleted(); got != 0 {
		t.Fatalf("with no actives every completed txn is C1-deletable; %d retained", got)
	}
}

func TestLemma1PolicyWeakerThanC1(t *testing.T) {
	// In Example 1 both completed txns have active predecessor T1, so
	// Lemma 1 deletes nothing, while C1 deletes one.
	s := Example1Scheduler(Config{Policy: Lemma1Policy{}})
	if s.NumCompleted() != 2 {
		t.Fatalf("Lemma1 should keep both; retained %d", s.NumCompleted())
	}
}

func TestLemma1PolicyDeletesUnreferenced(t *testing.T) {
	s := NewScheduler(Config{Policy: Lemma1Policy{}})
	s.MustApply(model.Begin(1))
	s.MustApply(model.WriteFinal(1, 0))
	if s.NumCompleted() != 0 {
		t.Fatal("isolated completed transaction should be deleted by Lemma 1")
	}
}

func TestMaxSafeExactOnExample1(t *testing.T) {
	s := Example1Scheduler(Config{Policy: MaxSafeExact{}})
	// The maximum safe subset of {T2, T3} has size 1.
	if got := s.NumCompleted(); got != 1 {
		t.Fatalf("retained = %d, want 1", got)
	}
}

func TestNoncurrentSafeDeletesT2KeepsT3(t *testing.T) {
	s := Example1Scheduler(Config{Policy: NoncurrentSafe{}})
	if s.Txn(Ex1T2) != nil {
		t.Fatal("T2 is noncurrent with present current writer: should delete")
	}
	if s.Txn(Ex1T3) == nil {
		t.Fatal("T3 is current: must be kept")
	}
}

func TestCommitGCDeletesAtCompletion(t *testing.T) {
	s := Example1Scheduler(Config{Policy: CommitGC{}})
	if s.NumCompleted() != 0 {
		t.Fatalf("CommitGC must delete at completion; %d retained", s.NumCompleted())
	}
}

func TestChainNameAndOrder(t *testing.T) {
	p := Chain{GreedyC1{NewestFirst: true}, NoncurrentNaive{}}
	if p.Name() != "chain(greedy-c1-newest+noncurrent-naive-UNSAFE)" {
		t.Fatalf("Name = %q", p.Name())
	}
}

func TestExample1TrapChainDeletesBoth(t *testing.T) {
	// The paper's Example 1 trap: C1-delete T3 (newest first), then the
	// naive noncurrent rule deletes T2 even though its witness is gone.
	s := Example1Scheduler(Config{Policy: Chain{GreedyC1{NewestFirst: true}, NoncurrentNaive{}}})
	if s.NumCompleted() != 0 {
		t.Fatalf("trap chain should (unsafely) delete both; retained %d", s.NumCompleted())
	}
	// Now T1's write of x must be ACCEPTED by this reduced scheduler --
	// the full scheduler would reject it (cycle with T2/T3). This is the
	// unsafe divergence; the oracle tests assert it end to end.
	res := s.MustApply(model.WriteFinal(Ex1T1, Ex1X))
	if !res.Accepted {
		t.Fatal("reduced scheduler should accept T1's write after the unsafe deletions")
	}
}

func TestExample1SafeChainRefusesT2(t *testing.T) {
	s := Example1Scheduler(Config{Policy: Chain{GreedyC1{NewestFirst: true}, NoncurrentSafe{}}})
	// GreedyC1-newest deletes T3; NoncurrentSafe must then refuse T2
	// because x's current writer (T3) is gone.
	if s.Txn(Ex1T2) == nil {
		t.Fatal("safe noncurrent variant must keep T2")
	}
	// And the full scheduler's verdict is preserved: T1's write rejected.
	res := s.MustApply(model.WriteFinal(Ex1T1, Ex1X))
	if res.Accepted {
		t.Fatal("T1's write must still be rejected (cycle through T2)")
	}
}

func TestSweepDeleteRejectsActives(t *testing.T) {
	var sawDelete bool
	p := policyFunc(func(sw *Sweep) {
		if sw.Delete(Ex1T1) {
			sawDelete = true
		}
	})
	Example1Scheduler(Config{Policy: p})
	if sawDelete {
		t.Fatal("Sweep.Delete must refuse active transactions")
	}
}

// policyFunc adapts a function to Policy for tests.
type policyFunc func(*Sweep)

func (policyFunc) Name() string      { return "test-policy" }
func (f policyFunc) Sweep(sw *Sweep) { f(sw) }

func TestPolicyNames(t *testing.T) {
	for _, p := range []Policy{NoGC{}, Lemma1Policy{}, GreedyC1{}, GreedyC1{NewestFirst: true},
		MaxSafeExact{}, NoncurrentSafe{}, CommitGC{}, NoncurrentNaive{}} {
		if p.Name() == "" {
			t.Fatalf("%T has empty name", p)
		}
	}
}

func TestSweepAccessors(t *testing.T) {
	var checked bool
	p := policyFunc(func(sw *Sweep) {
		if sw.Scheduler() == nil {
			t.Error("Scheduler() nil")
		}
		if sw.JustCompleted() == Ex1T3 {
			checked = true
			if got := sw.Completed(); len(got) != 2 {
				t.Errorf("Completed = %v", got)
			}
			if !sw.CheckC1(Ex1T2) {
				t.Error("CheckC1(T2) should hold")
			}
			if sw.CheckC2(map[model.TxnID]struct{}{Ex1T2: {}, Ex1T3: {}}) {
				t.Error("CheckC2 pair should fail")
			}
			if len(sw.Deleted()) != 0 {
				t.Error("nothing deleted yet")
			}
		}
	})
	Example1Scheduler(Config{Policy: p})
	if !checked {
		t.Fatal("sweep for T3's completion never ran")
	}
}

// TestPolicyByName: every listed name builds the policy that calls itself
// by that name, "nogc" is the nil constructor, and the UNSAFE negative
// controls cannot be asked for by name.
func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"lemma1", "greedy-c1", "greedy-c1-newest", "noncurrent-safe", "max-safe"} {
		mk, ok := PolicyByName(name)
		if !ok || mk == nil || mk().Name() != name {
			t.Errorf("PolicyByName(%q) does not build the policy of that name", name)
		}
	}
	if mk, ok := PolicyByName("nogc"); !ok || mk != nil {
		t.Error(`PolicyByName("nogc") must be the nil constructor`)
	}
	for _, name := range []string{"", CommitGC{}.Name(), NoncurrentNaive{}.Name(), "commit-gc-unsafe"} {
		if _, ok := PolicyByName(name); ok {
			t.Errorf("PolicyByName(%q) must be unknown", name)
		}
	}
}
