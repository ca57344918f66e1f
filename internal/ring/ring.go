// Package ring provides the bounded lock-free rings the engine's hot paths
// run on. Both types use the Vyukov bounded-MPMC cell protocol restricted
// to many producers and one consumer at a time: every cell carries a
// sequence number, producers claim a slot with one CAS on the enqueue
// cursor and publish with one store to the cell's sequence, and the
// consumer walks the ring in order. No mutex is ever taken on the publish
// path.
//
//   - MPSC is the fire-and-forget ring: TryPush either publishes or reports
//     the ring full (the emit.Bus drops and counts in that case). It is the
//     generalization of the ring proven inside internal/emit.
//   - Mailbox adds a request/reply rendezvous in the same cells: a producer
//     publishes a request, then waits on the cell's sequence word until the
//     consumer writes the reply back into the cell — no reply channel is
//     allocated, pooled, or selected on. This is the engine's shard
//     submission path.
//
// "One consumer" means one at a time, not one goroutine for life. The
// consumer may be a dedicated goroutine that parks on the ring when it is
// empty (Park: it announces it is about to sleep, re-checks the ring, then
// sleeps on a 1-buffered wake channel that producers touch only when they
// observe the announcement, so the steady-state publish cost is one atomic
// load). Or, as in the engine, it is whichever producer holds a runner flag
// the caller keeps beside the ring: the flag hands the consumer's side from
// goroutine to goroutine, and the producer waiting for a reply runs the
// consumer side itself (Poll, Replied, Arm, Pending and Nudge are the pieces
// such a producer needs).
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
// Mailbox: request ring with in-cell reply rendezvous (the shard
// submission path).

// rcell is one Mailbox slot. The sequence states for the producer that
// claimed position pos:
//
//	seq == pos     free, claimable
//	seq == pos+1   request published, awaiting the consumer
//	seq == pos+2   reply written, awaiting the producer's pickup
//	seq == pos+cap freed for the next lap
//
// A fire-and-forget request skips the reply state: the consumer frees the
// cell the moment it copies the request out. waiter is the Bell the
// producer sleeps on, nil while it is not asleep: Reply, and Nudge while
// the request is the oldest one waiting, ring it. Arming the bell and
// re-checking seq on one side, storing seq (or giving up the consumer's
// side) and loading waiter on the other, is a Dekker pair on sequentially
// consistent atomics, so a wake is never lost; stale rings are tolerated by
// re-checking seq around every sleep. bell is the cell's own Bell, made
// once at ring construction — never per request — for Wait to arm.
type rcell[Req, Rep any] struct {
	seq    atomic.Uint64
	waiter atomic.Pointer[Bell]
	bell   Bell
	fire   bool
	req    Req
	rep    Rep
}

// Bell is a producer's wake-up, armed on the requests it waits for (Arm).
// One bell may be armed on requests in several mailboxes at once, so a
// producer waiting for replies from several consumers sleeps once and
// wakes on whichever answers first. A ring that finds no one asleep is
// kept for the next Sleep, which then returns at once: a sleeper must
// re-check what it waits for after every wake.
type Bell struct{ ch chan struct{} }

// NewBell returns a bell.
func NewBell() *Bell { return &Bell{ch: make(chan struct{}, 1)} }

func (b *Bell) ring() {
	select {
	case b.ch <- struct{}{}:
	default:
	}
}

// Sleep blocks until the bell rings or stop is closed; false means stop.
func (b *Bell) Sleep(stop <-chan struct{}) bool {
	select {
	case <-b.ch:
		return true
	case <-stop:
		return false
	}
}

// Mailbox is a bounded multi-producer request ring with reply delivery
// through the same cells, consumed by one goroutine at a time. Producers
// call Send (round-trip), Start and Wait (the round-trip's two halves, so
// several can overlap) or Post (fire-and-forget); the consumer loops
// Next + Reply.
type Mailbox[Req, Rep any] struct {
	cells []rcell[Req, Rep]
	mask  uint64
	enq   atomic.Uint64
	// deq is written by the consumer only, and atomic so that a goroutine
	// that just gave up the consumer's side can still ask what is waiting
	// (Nudge).
	deq atomic.Uint64

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
		m.cells[i].bell.ch = make(chan struct{}, 1)
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

// Ticket names a request Start published; Wait or Poll redeems it for the
// reply.
type Ticket uint64

// Start publishes req without waiting for the reply, so a producer can have
// requests in flight on several mailboxes (or several on one) before it
// waits for any. sent=false means stop closed while the ring was full: the
// consumer never saw the request and the ticket is void. Every other ticket
// must be redeemed exactly once, because its cell stays claimed until then:
// a producer holding Cap unredeemed tickets on one mailbox would wait on
// itself at the next claim.
func (m *Mailbox[Req, Rep]) Start(req Req, stop <-chan struct{}) (tk Ticket, sent bool) {
	c, pos, claimed := m.claim(stop)
	if !claimed {
		return 0, false
	}
	m.publish(c, pos, req, false)
	return Ticket(pos), true
}

// Send publishes req and waits for the consumer's reply: Start, then Wait.
// sent reports whether the request was published (false only when stop
// closed while the ring was full — the consumer never saw it); ok reports
// whether a reply was received. sent && !ok means the request was published
// but stop closed before the consumer replied: the cell is abandoned (a
// late reply may still be written into it, so it is never recycled), which
// only happens during shutdown, when the whole ring is about to be garbage.
func (m *Mailbox[Req, Rep]) Send(req Req, stop <-chan struct{}) (rep Rep, sent, ok bool) {
	tk, sent := m.Start(req, stop)
	if !sent {
		return rep, false, false
	}
	rep, ok = m.Wait(tk, stop)
	return rep, true, ok
}

// Post publishes a fire-and-forget request: the consumer recycles the cell
// as soon as it picks the request up, and no reply is ever written. false
// means stop closed while the ring was full. A producer that runs the
// consumer's side itself only learns of its request's turn through a reply,
// so such a mailbox carries no Posts.
func (m *Mailbox[Req, Rep]) Post(req Req, stop <-chan struct{}) bool {
	c, pos, claimed := m.claim(stop)
	if !claimed {
		return false
	}
	m.publish(c, pos, req, true)
	return true
}

// Wait waits for the reply to the request Start published under tk, for a
// mailbox with a dedicated consumer: spin briefly, then sleep on the cell's
// own bell. ok=false means stop closed before the consumer replied, and the
// cell is abandoned (see Send).
func (m *Mailbox[Req, Rep]) Wait(tk Ticket, stop <-chan struct{}) (Rep, bool) {
	pos := uint64(tk)
	c := &m.cells[pos&m.mask]
	for i := 0; i < replySpins; i++ {
		if rep, ok := m.Poll(tk); ok {
			return rep, true
		}
		runtime.Gosched()
	}
	for !m.Arm(tk, &c.bell) {
		if !c.bell.Sleep(stop) {
			m.Arm(tk, nil)
			// Last chance: the reply may have landed while we woke.
			if rep, ok := m.Poll(tk); ok {
				return rep, true
			}
			// Abandon the cell (shutdown path; see Send).
			var zero Rep
			return zero, false
		}
	}
	rep, _ := m.Poll(tk)
	return rep, true
}

// Poll redeems tk if its reply is in, without blocking: ok=false means the
// consumer has not replied yet, and the ticket is still to be redeemed.
func (m *Mailbox[Req, Rep]) Poll(tk Ticket) (rep Rep, ok bool) {
	pos := uint64(tk)
	c := &m.cells[pos&m.mask]
	if c.seq.Load() != pos+2 {
		return rep, false
	}
	if c.waiter.Load() != nil {
		// Disarm before the cell is freed: the next lap's producer must
		// not inherit this one's bell.
		c.waiter.Store(nil)
	}
	rep = c.rep
	var zero Rep
	c.rep = zero
	c.seq.Store(pos + uint64(len(m.cells)))
	return rep, true
}

// Replied reports whether tk's reply is in, without redeeming it.
func (m *Mailbox[Req, Rep]) Replied(tk Ticket) bool {
	pos := uint64(tk)
	return m.cells[pos&m.mask].seq.Load() == pos+2
}

// Arm makes b the bell that the reply to tk rings, and a Nudge while tk is
// the oldest request waiting; nil disarms. It reports whether the reply is
// already in, checked after arming, so a producer that sleeps only on false
// misses no reply. The same bell may be armed on tickets of several
// mailboxes. Disarm, or Poll, before the bell is reused.
func (m *Mailbox[Req, Rep]) Arm(tk Ticket, b *Bell) (replied bool) {
	m.cells[uint64(tk)&m.mask].waiter.Store(b)
	return m.Replied(tk)
}

// Next pops the next published request in order. fire reports a
// fire-and-forget request whose cell is already recycled; otherwise the
// consumer must call Reply(tk, …) exactly once. Consumer only.
func (m *Mailbox[Req, Rep]) Next() (req Req, tk uint64, fire, ok bool) {
	tk = m.deq.Load()
	c := &m.cells[tk&m.mask]
	if c.seq.Load() != tk+1 {
		return req, 0, false, false
	}
	req = c.req
	var zero Req
	c.req = zero
	fire = c.fire
	m.deq.Store(tk + 1)
	if fire {
		c.seq.Store(tk + uint64(len(m.cells)))
	}
	return req, tk, fire, true
}

// Pending reports whether a published request waits for the consumer to
// pick it up. Consumer only (a dedicated one about to Park, or the runner):
// from anyone else the answer may be stale.
func (m *Mailbox[Req, Rep]) Pending() bool {
	d := m.deq.Load()
	return m.cells[d&m.mask].seq.Load() == d+1
}

// Nudge is for a goroutine that has just given up the consumer's side: it
// rings the bell of the oldest waiting request whose producer sleeps, if
// there is one. That producer takes the consumer's side over, and its turn
// starts at or before its own request. A producer that does not sleep
// finds out by itself; one that sleeps with its bell armed on a later
// request only (it is busy elsewhere with an older one) is reached through
// that later request. Safe from any goroutine: a consumer running meanwhile
// makes the look stale, and the ring at worst spurious.
func (m *Mailbox[Req, Rep]) Nudge() {
	for d := m.deq.Load(); ; d++ {
		c := &m.cells[d&m.mask]
		if c.seq.Load() != d+1 {
			return
		}
		if b := c.waiter.Load(); b != nil {
			b.ring()
			return
		}
	}
}

// Reply delivers the reply for the request Next returned under ticket tk
// and rings its producer's bell, if it sleeps. The producer — not the
// consumer — frees the cell once it picks the reply up, so a slow producer
// backpressures the ring at its own cell instead of losing the reply.
func (m *Mailbox[Req, Rep]) Reply(tk uint64, rep Rep) {
	c := &m.cells[tk&m.mask]
	c.rep = rep
	c.seq.Store(tk + 2)
	if b := c.waiter.Load(); b != nil {
		b.ring()
	}
}

// Park blocks a dedicated consumer until a producer publishes or stop is
// closed; false means stop fired first. Same protocol as MPSC.Park; a nil
// stop never fires.
func (m *Mailbox[Req, Rep]) Park(stop <-chan struct{}) bool {
	m.sleeping.Store(1)
	if m.Pending() {
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
