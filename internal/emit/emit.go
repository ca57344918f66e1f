// Package emit is the engine's non-blocking telemetry spine: a
// fixed-capacity event bus carrying typed transaction-lifecycle events from
// the schedulers' hot paths to pluggable sinks (structured log, Prometheus
// /metrics, capture files).
//
// The contract the hot path relies on:
//
//   - Emit never blocks. The bus is a bounded multi-producer ring; when the
//     ring is full the event is dropped and counted (Dropped), never queued
//     elsewhere and never waited for.
//   - Emit never allocates. Event is a flat value struct; publishing copies
//     it into a pre-allocated ring cell.
//   - Sinks run on one drain goroutine, so a slow sink can only ever cost
//     dropped events, not engine latency.
//
// Event identity: Shard says which shard graph the event happened on (-1
// for engine- or session-level events), Txn is the logical transaction, and
// Incarnation is the shard scheduler's begin sequence number for that
// incarnation of the ID — a reused TxnID gets a fresh Incarnation, so
// (Shard, Txn, Incarnation) names one sub-transaction lifetime unambiguously
// in a capture.
package emit

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/ring"
)

// Kind is the lifecycle event type.
type Kind uint8

const (
	// KindBegin: a transaction (or sub-transaction, or client session)
	// began.
	KindBegin Kind = iota
	// KindAccept: an access step was applied and accepted.
	KindAccept
	// KindVeto: a step was refused — accepting it would close a cycle in
	// one shard's conflict graph (or the step misrouted; see Class).
	KindVeto
	// KindCrossVeto: the cross-arc registry refused a step — it would
	// close a cycle spanning shard graphs.
	KindCrossVeto
	// KindPrepare: a participant voted YES on its slice of a cross
	// transaction's final write (the sub-node is pinned prepared).
	KindPrepare
	// KindCommit: a transaction completed — a local final write, one
	// participant's COMMIT decision, or a client session committing
	// (Shard == -1, Dur carries the session's wall-clock latency).
	KindCommit
	// KindAbort: a transaction (or sub-transaction, or session) aborted;
	// Class carries the outcome class of the cause.
	KindAbort
	// KindSweep: a deletion-policy sweep ran; N is the number of retained
	// completed transactions it reclaimed.
	KindSweep
	// KindReap: the retention governor aborted the oldest live straggler to
	// push retained storage back under the watermark; N is the engine-wide
	// retained count at the decision.
	KindReap

	numKinds = int(KindReap) + 1
)

var kindNames = [numKinds]string{
	"begin", "accept", "veto", "cross-veto", "prepare", "commit", "abort",
	"sweep", "reap",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < numKinds {
		return kindNames[k]
	}
	return "unknown"
}

// Class is the outcome class of an event, aligned with the engine's typed
// error taxonomy (and txgc-serve's wire codes).
type Class uint8

const (
	// ClassOK: the step/transaction succeeded.
	ClassOK Class = iota
	// ClassCycle: refused — local conflict cycle.
	ClassCycle
	// ClassCrossCycle: refused — cycle spanning shard graphs.
	ClassCrossCycle
	// ClassMisroute: the transaction touched an entity outside its
	// declared partition or participant set.
	ClassMisroute
	// ClassTxnAborted: the transaction died for a non-step reason (client
	// abort, context cancellation or deadline, sibling sub-abort).
	ClassTxnAborted
	// ClassProtocol: session-protocol violation.
	ClassProtocol
	// ClassClosed: the engine shut down underneath the operation.
	ClassClosed
	// ClassInternal: an error outside the taxonomy.
	ClassInternal
	// ClassStraggler: the retention governor reaped the transaction — it was
	// the oldest live straggler while retained storage sat over the
	// watermark.
	ClassStraggler

	numClasses = int(ClassStraggler) + 1
)

var classNames = [numClasses]string{
	"ok", "cycle", "cross-cycle", "misroute", "txn-aborted", "protocol",
	"closed", "internal", "straggler",
}

// String implements fmt.Stringer.
func (c Class) String() string {
	if int(c) < numClasses {
		return classNames[c]
	}
	return "unknown"
}

// NoShard marks an event not tied to one shard graph: engine-level routing
// decisions and client-session events.
const NoShard int32 = -1

// Event is one lifecycle event. It is a flat value struct — no pointers —
// so emitting one never allocates and capturing one is a plain copy.
type Event struct {
	Kind  Kind
	Class Class
	// Shard is the shard graph the event happened on, or NoShard.
	Shard int32
	// Txn is the logical transaction ID (sub-transactions carry the
	// logical ID, like the trace does).
	Txn model.TxnID
	// Incarnation is the emitting scheduler's begin sequence number for
	// this incarnation of Txn on this shard (0 when not applicable), so a
	// reused ID cannot be confused with its dead predecessor.
	Incarnation int64
	// N is the event's magnitude, when it has one: transactions reclaimed
	// by a KindSweep, the retained count at a KindReap.
	N int64
	// DurNanos is the wall-clock latency carried by client-session
	// KindCommit/KindAbort events (0 elsewhere).
	DurNanos int64
}

// Emitter publishes events. The engine hands each shard scheduler an
// Emitter that stamps the shard index; Emit reports whether the event was
// accepted (false: dropped on overflow or the bus is closed).
type Emitter interface {
	Emit(Event) bool
}

// Sink consumes the event stream. Consume is called from the bus's single
// drain goroutine, so implementations need no internal ordering; they must
// still synchronize any state read by other goroutines (an HTTP scrape, a
// concurrent Flush). Close flushes and releases the sink.
type Sink interface {
	Consume(Event)
	Close() error
}

// Bus is the bounded, non-blocking event bus: multi-producer (every shard
// goroutine plus client goroutines), single consumer (the drain goroutine
// feeding the sinks). The transport is the shared lock-free MPSC ring in
// internal/ring — the same cell protocol the engine's shard mailboxes run
// on — with the bus adding drop-and-count on overflow.
type Bus struct {
	ring *ring.MPSC[Event]

	emitted atomic.Uint64
	dropped atomic.Uint64

	done   chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup

	sinks []Sink
}

// DefaultBuffer is the ring capacity used when NewBus is given n <= 0.
const DefaultBuffer = 1 << 12

// NewBus starts a bus with a ring of capacity n (rounded up to a power of
// two; n <= 0 means DefaultBuffer) draining into sinks.
func NewBus(n int, sinks ...Sink) *Bus {
	if n <= 0 {
		n = DefaultBuffer
	}
	b := &Bus{
		ring:  ring.NewMPSC[Event](n),
		done:  make(chan struct{}),
		sinks: sinks,
	}
	b.wg.Add(1)
	go b.drain()
	return b
}

// Emit publishes one event without ever blocking: if the ring is full (the
// drain goroutine is behind) the event is dropped and counted. It is safe
// from any number of goroutines and reports whether the event was enqueued.
//
//txgc:hotpath
func (b *Bus) Emit(ev Event) bool {
	if !b.ring.TryPush(ev) {
		// The drain goroutine is a full lap behind. Drop, never block.
		b.dropped.Add(1)
		return false
	}
	b.emitted.Add(1)
	return true
}

// Emitted returns the number of events accepted onto the ring.
func (b *Bus) Emitted() uint64 { return b.emitted.Load() }

// Dropped returns the number of events dropped on ring overflow — the
// price of the never-block guarantee, visible instead of silent.
func (b *Bus) Dropped() uint64 { return b.dropped.Load() }

// drainReady consumes every ready event in ring order, dispatching each to
// all sinks, and returns how many it consumed.
func (b *Bus) drainReady() int {
	n := 0
	for {
		ev, ok := b.ring.Pop()
		if !ok {
			return n
		}
		n++
		for _, s := range b.sinks {
			s.Consume(ev)
		}
	}
}

// drainLinger is how many times the drain goroutine yields and re-checks
// an empty ring before parking on the wake channel. Each park/wake cycle
// costs the producers a flag store plus a channel send and the scheduler a
// goroutine transition — on a busy engine the ring refills within a few
// scheduler slices, so lingering turns most would-be parks into another
// batch consumed with zero producer-side cost.
const drainLinger = 64

func (b *Bus) drain() {
	defer b.wg.Done()
	for {
		if b.drainReady() > 0 {
			continue
		}
		lingered := false
		for i := 0; i < drainLinger; i++ {
			runtime.Gosched()
			if b.drainReady() > 0 {
				lingered = true
				break
			}
		}
		if lingered {
			continue
		}
		if !b.ring.Park(b.done) {
			// Close fired. Final sweep: consume what made it onto the ring
			// before (or while) Close was called, then let the sinks go.
			b.drainReady()
			return
		}
	}
}

// Close stops the drain goroutine after a final sweep of the ring, then
// closes every sink (in order). Emit during and after Close stays safe and
// non-blocking; late events may be dropped. Close is idempotent.
func (b *Bus) Close() error {
	if !b.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(b.done)
	b.wg.Wait()
	var first error
	for _, s := range b.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// shardEmitter stamps a fixed shard index onto every event.
type shardEmitter struct {
	b     *Bus
	shard int32
}

func (e shardEmitter) Emit(ev Event) bool {
	ev.Shard = e.shard
	return e.b.Emit(ev)
}

// ForShard returns an Emitter that publishes to b with Event.Shard forced
// to shard — what an engine hands each shard's scheduler. A nil bus yields
// a nil Emitter, so callers can thread it through unconditionally.
func ForShard(b *Bus, shard int) Emitter {
	if b == nil {
		return nil
	}
	return shardEmitter{b: b, shard: int32(shard)}
}
