// Package txdel is the paper toolkit of the reproduction of Hadzilacos &
// Yannakakis, "Deleting Completed Transactions" (PODS '86; JCSS 38,
// 1989): conflict-graph transaction schedulers that can safely *forget*
// completed transactions, one sequential scheduler at a time, with the
// paper's conditions, policies, models and examples.
//
// It is not a door to the sharded engine. Package repro/txdel/client is
// the one engine door: transaction sessions (DB.Begin) and the raw batch
// path (DB.SubmitBatch) over the concurrent, sharded, durable engine.
//
// # Background
//
// A conflict-graph (serialization-graph) scheduler accepts a step only if
// it keeps the conflict graph acyclic. Unlike locking, it cannot discard
// a transaction at commit: a committed node may be needed to detect a
// future cycle. This package implements the paper's necessary-and-
// sufficient conditions for when a completed transaction CAN be removed,
// and deletion policies built on them:
//
//   - Condition C1 (Theorem 1) for a single transaction, repeatable on
//     reduced graphs (Theorem 3) — the GreedyC1 policy.
//   - Condition C2 (Theorem 4) for sets; finding the maximum deletable
//     set is NP-complete (Theorem 5) — the MaxSafeExact policy.
//   - Corollary 1's noncurrent rule, made compositional (NoncurrentSafe).
//   - Condition C3 for the multiple-write model (NP-complete to test,
//     Theorem 6) — see repro/internal/multiwrite via the Multiwrite
//     helpers below.
//   - Condition C4 for predeclared transactions (Theorem 7) — see the
//     Predeclared helpers.
//
// # Quick start
//
//	s := txdel.NewScheduler(txdel.Config{Policy: txdel.GreedyC1{}})
//	s.Apply(txdel.Begin(1))
//	s.Apply(txdel.Read(1, 42))
//	s.Apply(txdel.WriteFinal(1, 42)) // completes T1
//
// Every Apply returns whether the step was accepted; a rejected step
// aborts its transaction (it would have created a cycle). The policy
// deletes completed transactions as soon as the paper's conditions allow,
// keeping the graph small; the behaviour is provably identical to never
// deleting anything (Theorem 2), which the repro/internal/oracle package
// verifies empirically.
package txdel

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/multiwrite"
	"repro/internal/predeclared"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Core vocabulary (aliases into the implementation packages).
type (
	// Entity identifies a database item.
	Entity = model.Entity
	// TxnID identifies a transaction.
	TxnID = model.TxnID
	// Access is an access strength (read < write).
	Access = model.Access
	// Status is a transaction lifecycle state.
	Status = model.Status
	// Step is one scheduler input.
	Step = model.Step
	// AccessSet records a transaction's strongest access per entity.
	AccessSet = model.AccessSet
	// NodeSet is a set of transaction IDs.
	NodeSet = graph.NodeSet
	// Graph is the conflict graph engine.
	Graph = graph.Graph
)

// Re-exported constants.
const (
	NoTxn       = model.NoTxn
	ReadAccess  = model.ReadAccess
	WriteAccess = model.WriteAccess

	StatusActive    = model.StatusActive
	StatusCompleted = model.StatusCompleted
	StatusFinished  = model.StatusFinished
	StatusCommitted = model.StatusCommitted
	StatusAborted   = model.StatusAborted
)

// Step constructors.
var (
	// Begin starts a transaction.
	Begin = model.Begin
	// BeginDeclared starts a transaction carrying its declared entity
	// footprint; sharded engines (see repro/txdel/client) route on it.
	BeginDeclared = model.BeginDeclared
	// Read reads one entity.
	Read = model.Read
	// WriteFinal is the basic model's final atomic write (completes the
	// transaction; an empty write set makes it read-only).
	WriteFinal = model.WriteFinal
	// Write is a multiple-write-model single write.
	Write = model.Write
	// Finish marks a multiple-write transaction finished.
	Finish = model.Finish
)

// Basic-model scheduler (paper Sections 2–4).
type (
	// Scheduler is the preventive conflict-graph scheduler.
	Scheduler = core.Scheduler
	// Certifier is the optimistic (certification) variant.
	Certifier = core.Certifier
	// Config configures a Scheduler.
	Config = core.Config
	// Result reports a step's outcome: the verdict, not the step, which
	// the caller of Apply already holds.
	Result = core.Result
	// Stats are scheduler counters.
	Stats = core.Stats
	// Policy decides which completed transactions to delete.
	Policy = core.Policy
	// Sweep is the handle a Policy mutates through.
	Sweep = core.Sweep

	// NoGC never deletes.
	NoGC = core.NoGC
	// Lemma1Policy deletes nodes with no active predecessors.
	Lemma1Policy = core.Lemma1Policy
	// GreedyC1 repeatedly deletes any node satisfying condition C1.
	GreedyC1 = core.GreedyC1
	// MaxSafeExact deletes a maximum safe set (branch-and-bound over C2).
	MaxSafeExact = core.MaxSafeExact
	// NoncurrentSafe is Corollary 1's rule with a presence guard.
	NoncurrentSafe = core.NoncurrentSafe
	// NoncurrentNaive is Corollary 1 verbatim (safe standalone only).
	NoncurrentNaive = core.NoncurrentNaive
	// CommitGC deletes at commit — UNSAFE under conflict scheduling;
	// provided as a negative control.
	CommitGC = core.CommitGC
	// Chain composes policies in order.
	Chain = core.Chain

	// C1Violation witnesses a C1 failure.
	C1Violation = core.C1Violation
	// C2Violation witnesses a C2 failure.
	C2Violation = core.C2Violation
)

// NewScheduler returns a basic-model scheduler.
func NewScheduler(cfg Config) *Scheduler { return core.NewScheduler(cfg) }

// NewCertifier returns the certification-variant scheduler.
func NewCertifier() *Certifier { return core.NewCertifier() }

// CheckC1 evaluates Theorem 1's condition C1 for a transaction on the
// scheduler's current (possibly reduced) graph.
func CheckC1(s *Scheduler, id TxnID) (bool, *C1Violation) { return s.CheckC1(id) }

// CheckC2 evaluates Theorem 4's condition C2 for a set.
func CheckC2(s *Scheduler, set NodeSet) (bool, *C2Violation) { return s.CheckC2(set) }

// MaxSafeSet computes a maximum-size safely deletable subset of the
// completed transactions (Theorem 5's NP-complete problem; exact
// branch-and-bound with the given node budget, 0 = default).
func MaxSafeSet(s *Scheduler, budget int) NodeSet {
	return core.MaxSafeSet(s, s.Graph(), s.CompletedTxns(), budget)
}

// Multiple-write model (paper Section 5).
type (
	// MWScheduler is the multiple-write-model scheduler (A/F/C states,
	// dirty reads, cascading aborts).
	MWScheduler = multiwrite.Scheduler
	// MWResult reports a multiwrite step's outcome.
	MWResult = multiwrite.Result
	// C3Violation witnesses a C3 failure.
	C3Violation = multiwrite.C3Violation
)

// NewMWScheduler returns a multiple-write-model scheduler.
func NewMWScheduler() *MWScheduler { return multiwrite.NewScheduler() }

// Predeclared model (paper Section 5).
type (
	// PDScheduler is the predeclared-transactions scheduler (delays
	// instead of aborting).
	PDScheduler = predeclared.Scheduler
	// Decl is a transaction's declared read/write sets.
	Decl = predeclared.Decl
	// PDConfig configures a PDScheduler.
	PDConfig = predeclared.Config
	// PDResult reports a predeclared step's outcome.
	PDResult = predeclared.Result
	// PDOutcome is a predeclared step outcome (Executed or Blocked).
	PDOutcome = predeclared.Outcome
	// C4Violation witnesses a C4 failure.
	C4Violation = predeclared.C4Violation
)

// Predeclared outcomes.
const (
	// Executed means the predeclared step ran.
	Executed = predeclared.Executed
	// Blocked means it was delayed behind a future conflicting step.
	Blocked = predeclared.Blocked
)

// NewPDScheduler returns a predeclared scheduler; with GC enabled it
// greedily deletes completed transactions satisfying condition C4.
func NewPDScheduler(cfg PDConfig) *PDScheduler { return predeclared.NewScheduler(cfg) }

// Offline checking and workloads.
type (
	// Log records submitted steps for offline CSR checking.
	Log = trace.Log
	// WorkloadConfig parameterizes the synthetic workload generator.
	WorkloadConfig = workload.Config
	// Workload generates basic-model step streams.
	Workload = workload.Gen
)

// NewLog returns an empty schedule log.
func NewLog() *Log { return trace.NewLog() }

// IsCSR reports whether a schedule is conflict serializable, computed
// from scratch (independent of any scheduler state).
func IsCSR(steps []Step) bool { return trace.IsCSR(steps) }

// NewWorkload returns a deterministic synthetic workload generator.
func NewWorkload(cfg WorkloadConfig) *Workload { return workload.New(cfg) }
