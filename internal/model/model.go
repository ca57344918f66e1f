// Package model defines the shared vocabulary of the reproduction: database
// entities, transaction identifiers, access strengths, transaction statuses,
// and the steps that schedulers consume.
//
// The model follows Hadzilacos & Yannakakis, "Deleting Completed
// Transactions" (JCSS 38, 1989; PODS '86). A database is a set of entities.
// In the basic model (Section 2 of the paper) a transaction is a BEGIN step,
// a sequence of read steps, and one final atomic write step that installs
// all of its writes and completes the transaction. Section 5 relaxes this:
// the multiple-write model allows interleaved read and write steps (ended by
// an explicit finish step), and the predeclared model declares the full
// read/write sets at BEGIN time.
package model

import "fmt"

// Entity identifies a database item ("entity" in the paper's terminology).
// Entities are dense small integers so that workloads and experiments can
// sweep the database size cheaply.
type Entity int32

// TxnID identifies a transaction. IDs are unique over the life of a
// scheduler and never reused, even after aborts or deletions; allocation
// order doubles as transaction age.
type TxnID int64

// NoTxn is the zero-ish sentinel for "no transaction".
const NoTxn TxnID = -1

// Access is the strength of a transaction's access to an entity.
// The paper says "a write access of an entity by a transaction is stronger
// than a read access"; AtLeastAsStrong encodes exactly that order.
type Access uint8

const (
	// NoAccess means the transaction never touched the entity.
	NoAccess Access = iota
	// ReadAccess means the strongest access was a read.
	ReadAccess
	// WriteAccess means the transaction wrote the entity.
	WriteAccess
)

// AtLeastAsStrong reports whether access a is at least as strong as b.
func (a Access) AtLeastAsStrong(b Access) bool { return a >= b }

// Conflicts reports whether two accesses to the same entity conflict:
// they do iff at least one of them is a write (and both are real accesses).
func (a Access) Conflicts(b Access) bool {
	return a != NoAccess && b != NoAccess && (a == WriteAccess || b == WriteAccess)
}

// String implements fmt.Stringer.
func (a Access) String() string {
	switch a {
	case NoAccess:
		return "none"
	case ReadAccess:
		return "read"
	case WriteAccess:
		return "write"
	default:
		return fmt.Sprintf("Access(%d)", uint8(a))
	}
}

// Status is the lifecycle state of a transaction.
//
// The basic model uses Active and Completed (the paper's atomic-write
// assumption makes completion and commit coincide). The multiple-write
// model of Section 5 distinguishes Finished (all steps executed but still
// dependent on an uncommitted writer, the paper's type F) from Committed
// (type C). Aborted transactions are removed from the graph entirely.
type Status uint8

const (
	// StatusActive is a transaction that has begun and not yet finished
	// (the paper's "active"; type A in Section 5).
	StatusActive Status = iota
	// StatusCompleted is a basic-model transaction that executed its final
	// write; in the basic model it is also committed.
	StatusCompleted
	// StatusFinished is a multiple-write transaction that executed all its
	// steps but still depends on an uncommitted transaction (type F).
	StatusFinished
	// StatusCommitted is a multiple-write transaction whose dependencies
	// have all committed (type C).
	StatusCommitted
	// StatusAborted is a transaction removed after creating a cycle (or by
	// cascading abort in the multiple-write model).
	StatusAborted
)

// Terminated reports whether the transaction has executed all of its steps
// (completed, finished, or committed) — the paper's "completed".
func (s Status) Terminated() bool {
	return s == StatusCompleted || s == StatusFinished || s == StatusCommitted
}

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusCompleted:
		return "completed"
	case StatusFinished:
		return "finished"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// StepKind distinguishes the kinds of steps a scheduler consumes.
type StepKind uint8

const (
	// KindBegin starts a transaction (Rule 1).
	KindBegin StepKind = iota
	// KindRead reads one entity (Rule 2).
	KindRead
	// KindWriteFinal is the basic model's final atomic write step: it
	// installs writes to Entities and completes the transaction (Rule 3).
	KindWriteFinal
	// KindWrite is a multiple-write-model write of a single entity.
	KindWrite
	// KindFinish marks a multiple-write transaction as finished (it has no
	// graph effect; it only changes the transaction's status).
	KindFinish
	// KindCommit and KindAbort are a sharded engine's two-phase-commit
	// decisions for a transaction, outside the basic model: the engine
	// sends them to its shards and no scheduler or client door accepts them.
	KindCommit
	KindAbort
)

// String implements fmt.Stringer.
func (k StepKind) String() string {
	switch k {
	case KindBegin:
		return "begin"
	case KindRead:
		return "read"
	case KindWriteFinal:
		return "write*"
	case KindWrite:
		return "write"
	case KindFinish:
		return "finish"
	case KindCommit:
		return "commit"
	case KindAbort:
		return "abort"
	default:
		return fmt.Sprintf("StepKind(%d)", uint8(k))
	}
}

// Step is one unit of scheduler input.
type Step struct {
	Kind StepKind
	Txn  TxnID
	// Entity is the target of KindRead and KindWrite.
	Entity Entity
	// Entities is the write set of KindWriteFinal.
	Entities []Entity
}

// Begin constructs a BEGIN step.
func Begin(t TxnID) Step { return Step{Kind: KindBegin, Txn: t} }

// BeginDeclared constructs a BEGIN step carrying the transaction's declared
// entity footprint in Entities (in the spirit of Section 6's predeclared
// model). Schedulers ignore the footprint; sharded engines use it to route
// the transaction to the shard owning its partition.
func BeginDeclared(t TxnID, xs ...Entity) Step {
	return Step{Kind: KindBegin, Txn: t, Entities: xs}
}

// Read constructs a read step.
func Read(t TxnID, x Entity) Step { return Step{Kind: KindRead, Txn: t, Entity: x} }

// WriteFinal constructs the basic model's final atomic write step.
func WriteFinal(t TxnID, xs ...Entity) Step {
	return Step{Kind: KindWriteFinal, Txn: t, Entities: xs}
}

// Write constructs a multiple-write-model single-entity write step.
func Write(t TxnID, x Entity) Step { return Step{Kind: KindWrite, Txn: t, Entity: x} }

// Finish constructs a multiple-write-model finish marker.
func Finish(t TxnID) Step { return Step{Kind: KindFinish, Txn: t} }

// String implements fmt.Stringer.
func (st Step) String() string {
	switch st.Kind {
	case KindBegin:
		return fmt.Sprintf("T%d:begin", st.Txn)
	case KindRead:
		return fmt.Sprintf("T%d:r(%d)", st.Txn, st.Entity)
	case KindWriteFinal:
		return fmt.Sprintf("T%d:W%v", st.Txn, st.Entities)
	case KindWrite:
		return fmt.Sprintf("T%d:w(%d)", st.Txn, st.Entity)
	case KindFinish, KindCommit, KindAbort:
		return fmt.Sprintf("T%d:%v", st.Txn, st.Kind)
	default:
		return fmt.Sprintf("T%d:?", st.Txn)
	}
}

// AccessSet is a per-entity record of the strongest access a transaction
// has performed. It is the information the paper says can be "forgotten"
// when a transaction is deleted.
type AccessSet map[Entity]Access

// Note records an access, keeping the strongest per entity, and reports
// whether the set changed.
func (as AccessSet) Note(x Entity, a Access) bool {
	if cur := as[x]; a > cur {
		as[x] = a
		return true
	}
	return false
}

// Get returns the strongest access recorded for x (NoAccess if none).
func (as AccessSet) Get(x Entity) Access { return as[x] }

// Clone deep-copies the access set.
func (as AccessSet) Clone() AccessSet {
	out := make(AccessSet, len(as))
	for k, v := range as {
		out[k] = v
	}
	return out
}

// Entities returns the accessed entities in unspecified order.
func (as AccessSet) Entities() []Entity {
	out := make([]Entity, 0, len(as))
	for x := range as {
		out = append(out, x)
	}
	return out
}
