// Package ring provides bounded lock-free rings. Both types use the Vyukov
// bounded-MPMC cell protocol restricted to many producers and one
// consumer: every cell carries a sequence number, producers claim a slot
// with one CAS on the enqueue cursor and publish with one store to the
// cell's sequence, and the consumer walks the ring in order with plain
// loads. No mutex is ever taken on the publish path.
//
//   - MPSC is the fire-and-forget ring: TryPush either publishes or reports
//     the ring full (the emit.Bus drops and counts in that case). It is the
//     generalization of the ring proven inside internal/emit.
//   - Mailbox adds a request/reply rendezvous in the same cells: a producer
//     publishes a request, then parks on the cell's sequence word until the
//     consumer writes the reply back into the cell — no reply channel is
//     allocated, pooled, or selected on. It is not on the engine's path (a
//     shard is a mutex its submitters take); it is the reference
//     hand-off the benchmark's ring rung times.
//
// Both share the sleeping-consumer protocol: the consumer announces it is
// about to sleep, re-checks the ring, then parks on a 1-buffered wake
// channel; producers only touch that channel when they observe the
// announcement, so the steady-state publish cost is one atomic load.
package ring

import (
	"runtime"
	"sync/atomic"
	"time"
)

const (
	// claimYields bounds the yields a producer burns on a full ring before
	// it starts sleeping between probes: the consumer is behind, so the
	// right move is to hand it the CPU, then stop burning cycles entirely.
	claimYields = 128
	// claimSleep is the probe interval once a producer on a full ring has
	// exhausted its yields.
	claimSleep = 5 * time.Microsecond
	// replySpins is how many times a reply waiter re-checks the cell
	// (yielding between checks) before parking on the cell's wake channel.
	// A healthy consumer replies within a batch, so most waits end here.
	replySpins = 8
)

// roundUp returns the next power of two ≥ n (minimum 2).
func roundUp(n int) int {
	c := 2
	for c < n {
		c <<= 1
	}
	return c
}

// ---------------------------------------------------------------------------
// MPSC: fire-and-forget ring (the telemetry bus's transport).

// mcell is one MPSC slot. seq == pos means free for the producer claiming
// pos; seq == pos+1 means published; the consumer frees by storing
// pos+capacity, the next lap's base.
type mcell[T any] struct {
	seq atomic.Uint64
	val T
}

// MPSC is a bounded multi-producer single-consumer ring. TryPush never
// blocks; Pop and Park must be called from a single consumer goroutine.
type MPSC[T any] struct {
	cells []mcell[T]
	mask  uint64
	enq   atomic.Uint64
	// deq is owned by the consumer.
	deq uint64

	sleeping atomic.Int32
	wake     chan struct{}
}

// NewMPSC returns an MPSC ring with capacity n rounded up to a power of
// two.
func NewMPSC[T any](n int) *MPSC[T] {
	n = roundUp(n)
	r := &MPSC[T]{
		cells: make([]mcell[T], n),
		mask:  uint64(n - 1),
		wake:  make(chan struct{}, 1),
	}
	for i := range r.cells {
		r.cells[i].seq.Store(uint64(i))
	}
	return r
}

// Cap returns the ring capacity.
func (r *MPSC[T]) Cap() int { return len(r.cells) }

// TryPush publishes v and reports whether it was accepted; false means the
// ring is full (the consumer is a full lap behind). It never blocks and is
// safe from any number of goroutines.
func (r *MPSC[T]) TryPush(v T) bool {
	for {
		pos := r.enq.Load()
		c := &r.cells[pos&r.mask]
		seq := c.seq.Load()
		switch d := int64(seq) - int64(pos); {
		case d == 0:
			if r.enq.CompareAndSwap(pos, pos+1) {
				c.val = v
				c.seq.Store(pos + 1)
				r.wakeConsumer()
				return true
			}
		case d < 0:
			// The cell still holds an unconsumed value from one lap ago.
			return false
		default:
			// Another producer advanced enq between our loads; retry.
		}
	}
}

func (r *MPSC[T]) wakeConsumer() {
	if r.sleeping.Load() != 0 {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
}

// Pop consumes the next value in publish order. Single consumer only.
func (r *MPSC[T]) Pop() (T, bool) {
	c := &r.cells[r.deq&r.mask]
	var zero T
	if c.seq.Load() != r.deq+1 {
		return zero, false
	}
	v := c.val
	c.val = zero
	c.seq.Store(r.deq + uint64(len(r.cells)))
	r.deq++
	return v, true
}

// Park blocks the consumer until a producer publishes or stop is closed;
// false means stop fired first. The announce-then-recheck order makes the
// race with a concurrent publish safe: a producer that published before
// seeing the announcement is caught by the recheck, one that published
// after sees the announcement and sends the wake. A nil stop never fires.
func (r *MPSC[T]) Park(stop <-chan struct{}) bool {
	r.sleeping.Store(1)
	if r.cells[r.deq&r.mask].seq.Load() == r.deq+1 {
		r.sleeping.Store(0)
		return true
	}
	select {
	case <-r.wake:
		r.sleeping.Store(0)
		return true
	case <-stop:
		r.sleeping.Store(0)
		return false
	}
}

// ---------------------------------------------------------------------------
// Mailbox: request ring with in-cell reply rendezvous.

// rcell is one Mailbox slot. The sequence states for the producer that
// claimed position pos:
//
//	seq == pos     free, claimable
//	seq == pos+1   request published, awaiting the consumer
//	seq == pos+2   reply written, awaiting the producer's pickup
//	seq == pos+cap freed for the next lap
//
// A fire-and-forget request skips the reply state: the consumer frees the
// cell the moment it copies the request out. wch is the cell's wake
// channel, allocated once at ring construction — never per request — and
// only used when the reply waiter gives up spinning; waiter is the flag
// coordinating that park with the consumer's Reply (a Dekker pair on
// sequentially consistent atomics, so a wake is never lost; stale tokens
// are tolerated by re-checking seq around every park).
type rcell[Req, Rep any] struct {
	seq    atomic.Uint64
	waiter atomic.Int32
	wch    chan struct{}
	fire   bool
	req    Req
	rep    Rep
}

// Mailbox is a bounded multi-producer single-consumer request ring with
// reply delivery through the same cells. Producers call Send (round-trip)
// or Post (fire-and-forget); the single consumer loops Next + Reply.
type Mailbox[Req, Rep any] struct {
	cells []rcell[Req, Rep]
	mask  uint64
	enq   atomic.Uint64
	// deq is owned by the consumer.
	deq uint64

	sleeping atomic.Int32
	wake     chan struct{}
}

// NewMailbox returns a Mailbox with capacity n rounded up to a power of
// two. Capacity bounds the submission backlog: a producer claiming a slot
// on a full ring waits (yield, then sleep-probe) until the consumer frees
// one — backpressure, never an unbounded queue.
func NewMailbox[Req, Rep any](n int) *Mailbox[Req, Rep] {
	n = roundUp(n)
	m := &Mailbox[Req, Rep]{
		cells: make([]rcell[Req, Rep], n),
		mask:  uint64(n - 1),
		wake:  make(chan struct{}, 1),
	}
	for i := range m.cells {
		m.cells[i].seq.Store(uint64(i))
		m.cells[i].wch = make(chan struct{}, 1)
	}
	return m
}

// Cap returns the ring capacity.
func (m *Mailbox[Req, Rep]) Cap() int { return len(m.cells) }

// claim CAS-acquires the next enqueue slot, applying backpressure while
// the ring is full. ok=false means stop was closed while waiting.
func (m *Mailbox[Req, Rep]) claim(stop <-chan struct{}) (*rcell[Req, Rep], uint64, bool) {
	spins := 0
	for {
		pos := m.enq.Load()
		c := &m.cells[pos&m.mask]
		seq := c.seq.Load()
		switch d := int64(seq) - int64(pos); {
		case d == 0:
			if m.enq.CompareAndSwap(pos, pos+1) {
				return c, pos, true
			}
		case d < 0:
			// Full: the consumer (or a slow reply pickup) still owns the
			// cell one lap back.
			select {
			case <-stop:
				return nil, 0, false
			default:
			}
			if spins < claimYields {
				spins++
				runtime.Gosched()
			} else {
				time.Sleep(claimSleep)
			}
		default:
			// Stale enq read; retry.
		}
	}
}

func (m *Mailbox[Req, Rep]) publish(c *rcell[Req, Rep], pos uint64, req Req, fire bool) {
	c.req = req
	c.fire = fire
	c.seq.Store(pos + 1)
	if m.sleeping.Load() != 0 {
		select {
		case m.wake <- struct{}{}:
		default:
		}
	}
}

// ticket names a request start published; wait redeems it for the reply.
type ticket uint64

// start publishes req without waiting for the reply, so a producer can have
// requests in flight on several mailboxes (or several on one) before it
// waits for any. sent=false means stop closed while the ring was full: the
// consumer never saw the request and the ticket is void. Every other ticket
// must be redeemed by exactly one wait, because its cell stays claimed until
// then: a producer holding Cap unredeemed tickets on one mailbox would wait
// on itself at the next claim.
func (m *Mailbox[Req, Rep]) start(req Req, stop <-chan struct{}) (tk ticket, sent bool) {
	c, pos, claimed := m.claim(stop)
	if !claimed {
		return 0, false
	}
	m.publish(c, pos, req, false)
	return ticket(pos), true
}

// Send publishes req and waits for the consumer's reply: start, then wait.
// sent reports whether the request was published (false only when stop
// closed while the ring was full — the consumer never saw it); ok reports
// whether a reply was received. sent && !ok means the request was published
// but stop closed before the consumer replied: the cell is abandoned (a
// late reply may still be written into it, so it is never recycled), which
// only happens during shutdown, when the whole ring is about to be garbage.
func (m *Mailbox[Req, Rep]) Send(req Req, stop <-chan struct{}) (rep Rep, sent, ok bool) {
	tk, sent := m.start(req, stop)
	if !sent {
		return rep, false, false
	}
	rep, ok = m.wait(tk, stop)
	return rep, true, ok
}

// Post publishes a fire-and-forget request: the consumer recycles the cell
// as soon as it picks the request up, and no reply is ever written. false
// means stop closed while the ring was full.
func (m *Mailbox[Req, Rep]) Post(req Req, stop <-chan struct{}) bool {
	c, pos, claimed := m.claim(stop)
	if !claimed {
		return false
	}
	m.publish(c, pos, req, true)
	return true
}

// wait waits for the reply to the request start published under tk: spin
// briefly, then park on the cell's wake channel. ok=false means stop closed
// before the consumer replied, and the cell is abandoned (see Send). The
// waiter-flag handshake with Reply runs on sequentially consistent atomics:
// either the waiter sees the reply's sequence store and skips the park, or
// Reply sees the waiter flag and sends the token — a lost wake would need
// both loads to precede both stores, which seq-cst forbids. Spurious tokens
// (from a waiter that raced past its own park, possibly a lap ago) are
// absorbed by re-checking the sequence around every park.
func (m *Mailbox[Req, Rep]) wait(tk ticket, stop <-chan struct{}) (Rep, bool) {
	pos := uint64(tk)
	c := &m.cells[pos&m.mask]
	done := pos + 2
	for i := 0; i < replySpins; i++ {
		if c.seq.Load() == done {
			return m.take(c, pos), true
		}
		runtime.Gosched()
	}
	c.waiter.Store(1)
	for {
		if c.seq.Load() == done {
			c.waiter.Store(0)
			return m.take(c, pos), true
		}
		select {
		case <-c.wch:
			// Re-check; the token may be stale.
		case <-stop:
			c.waiter.Store(0)
			// Last chance: the reply may have landed while we woke.
			if c.seq.Load() == done {
				return m.take(c, pos), true
			}
			// Abandon the cell (shutdown path; see Send).
			var zero Rep
			return zero, false
		}
	}
}

// take copies the reply out and frees the cell for the next lap.
func (m *Mailbox[Req, Rep]) take(c *rcell[Req, Rep], pos uint64) Rep {
	rep := c.rep
	var zero Rep
	c.rep = zero
	c.seq.Store(pos + uint64(len(m.cells)))
	return rep
}

// Next pops the next published request in order. fire reports a
// fire-and-forget request whose cell is already recycled; otherwise the
// consumer must call Reply(tk, …) exactly once. Single consumer only.
func (m *Mailbox[Req, Rep]) Next() (req Req, tk uint64, fire, ok bool) {
	c := &m.cells[m.deq&m.mask]
	if c.seq.Load() != m.deq+1 {
		return req, 0, false, false
	}
	req = c.req
	var zero Req
	c.req = zero
	tk = m.deq
	fire = c.fire
	m.deq++
	if fire {
		c.seq.Store(tk + uint64(len(m.cells)))
	}
	return req, tk, fire, true
}

// Reply delivers the reply for the request Next returned under ticket tk
// and wakes its parked producer, if any. The producer — not the consumer —
// frees the cell once it picks the reply up, so a slow producer
// backpressures the ring at its own cell instead of losing the reply.
func (m *Mailbox[Req, Rep]) Reply(tk uint64, rep Rep) {
	c := &m.cells[tk&m.mask]
	c.rep = rep
	c.seq.Store(tk + 2)
	if c.waiter.Load() != 0 {
		select {
		case c.wch <- struct{}{}:
		default:
		}
	}
}

// Park blocks the consumer until a producer publishes or stop is closed;
// false means stop fired first. Same protocol as MPSC.Park; a nil stop
// never fires.
func (m *Mailbox[Req, Rep]) Park(stop <-chan struct{}) bool {
	m.sleeping.Store(1)
	if m.cells[m.deq&m.mask].seq.Load() == m.deq+1 {
		m.sleeping.Store(0)
		return true
	}
	select {
	case <-m.wake:
		m.sleeping.Store(0)
		return true
	case <-stop:
		m.sleeping.Store(0)
		return false
	}
}
