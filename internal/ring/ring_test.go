package ring

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMPSCOrderedSingleProducer(t *testing.T) {
	r := NewMPSC[int](8)
	for i := 0; i < 8; i++ {
		if !r.TryPush(i) {
			t.Fatalf("TryPush(%d) = false on non-full ring", i)
		}
	}
	if r.TryPush(99) {
		t.Fatal("TryPush succeeded on a full ring")
	}
	for i := 0; i < 8; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = (%d, %v), want (%d, true)", v, ok, i)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop succeeded on an empty ring")
	}
	// Freed cells are claimable again (wraparound).
	if !r.TryPush(42) {
		t.Fatal("TryPush failed after drain")
	}
	if v, ok := r.Pop(); !ok || v != 42 {
		t.Fatalf("Pop after wrap = (%d, %v), want (42, true)", v, ok)
	}
}

func TestMPSCCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{0, 2}, {1, 2}, {3, 4}, {4, 4}, {1000, 1024}} {
		if got := NewMPSC[byte](tc.n).Cap(); got != tc.want {
			t.Errorf("NewMPSC(%d).Cap() = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestMPSCConcurrentProducers hammers the ring from many producers with a
// consumer that parks when idle, and checks every pushed value arrives
// exactly once. Run under -race in CI.
func TestMPSCConcurrentProducers(t *testing.T) {
	const producers = 8
	const perProducer = 5000
	r := NewMPSC[int](256)
	stop := make(chan struct{})
	seen := make(map[int]bool, producers*perProducer)
	var pushed atomic.Int64
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for {
			v, ok := r.Pop()
			if ok {
				if seen[v] {
					t.Errorf("value %d consumed twice", v)
				}
				seen[v] = true
				continue
			}
			if !r.Park(stop) {
				for {
					v, ok := r.Pop()
					if !ok {
						return
					}
					seen[v] = true
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if r.TryPush(p*perProducer + i) {
					pushed.Add(1)
				}
			}
		}(p)
	}
	wg.Wait()
	// Give the consumer a moment to drain the tail, then stop it.
	time.Sleep(10 * time.Millisecond)
	close(stop)
	<-consumed
	if int64(len(seen)) != pushed.Load() {
		t.Fatalf("consumed %d values, pushed %d", len(seen), pushed.Load())
	}
}

func TestMailboxRoundTrip(t *testing.T) {
	m := NewMailbox[int, int](8)
	done := make(chan struct{})
	go func() {
		for {
			req, tk, fire, ok := m.Next()
			if !ok {
				if !m.Park(done) {
					return
				}
				continue
			}
			if fire {
				continue
			}
			m.Reply(tk, req*2)
		}
	}()
	defer close(done)
	for i := 1; i <= 100; i++ {
		rep, sent, ok := m.Send(i, nil)
		if !sent || !ok || rep != i*2 {
			t.Fatalf("Send(%d) = (%d, %v, %v), want (%d, true, true)", i, rep, sent, ok, i*2)
		}
	}
}

// TestMailboxConcurrentSenders verifies the rendezvous under contention:
// every sender must get back exactly the reply to its own request, across
// many laps of a small ring. Run under -race in CI.
func TestMailboxConcurrentSenders(t *testing.T) {
	const senders = 8
	const perSender = 3000
	m := NewMailbox[uint64, uint64](16) // small: force wraparound and full-ring waits
	done := make(chan struct{})
	var served atomic.Int64
	go func() {
		for {
			req, tk, fire, ok := m.Next()
			if !ok {
				if !m.Park(done) {
					return
				}
				continue
			}
			if fire {
				continue
			}
			served.Add(1)
			m.Reply(tk, req^0xdeadbeef)
		}
	}()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				req := uint64(s)<<32 | uint64(i)
				rep, sent, ok := m.Send(req, nil)
				if !sent || !ok {
					t.Errorf("Send(%#x) failed: sent=%v ok=%v", req, sent, ok)
					return
				}
				if rep != req^0xdeadbeef {
					t.Errorf("Send(%#x) got reply %#x, want %#x", req, rep, req^0xdeadbeef)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(done)
	if served.Load() != senders*perSender {
		t.Fatalf("consumer served %d requests, want %d", served.Load(), senders*perSender)
	}
}

// TestMailboxPostFireAndForget checks Post requests are delivered without a
// reply and their cells recycle immediately.
func TestMailboxPostFireAndForget(t *testing.T) {
	m := NewMailbox[int, int](4)
	for i := 0; i < 10; i++ { // > capacity: proves Next recycles fire cells
		if !m.Post(i, nil) {
			t.Fatalf("Post(%d) = false", i)
		}
		req, _, fire, ok := m.Next()
		if !ok || !fire || req != i {
			t.Fatalf("Next = (%d, fire=%v, ok=%v), want (%d, true, true)", req, fire, ok, i)
		}
	}
}

// TestMailboxStopWhileFull checks a producer blocked on a full ring gives
// up when stop closes, reporting the request unsent.
func TestMailboxStopWhileFull(t *testing.T) {
	m := NewMailbox[int, int](2)
	if !m.Post(1, nil) || !m.Post(2, nil) {
		t.Fatal("setup posts failed")
	}
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, sent, ok := m.Send(3, stop)
		if sent || ok {
			errc <- nil // signal wrong outcome via non-nil check below
		}
		close(errc)
	}()
	time.Sleep(5 * time.Millisecond) // let the sender hit the full ring
	close(stop)
	select {
	case _, wrong := <-errc:
		if wrong {
			t.Fatal("Send on full ring with closed stop reported sent/ok")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Send did not return after stop closed")
	}
}

// TestMailboxStopWhileAwaitingReply checks a producer whose request was
// published but never served unblocks when stop closes, reporting
// sent-but-no-reply.
func TestMailboxStopWhileAwaitingReply(t *testing.T) {
	m := NewMailbox[int, int](4)
	stop := make(chan struct{})
	type outcome struct{ sent, ok bool }
	res := make(chan outcome, 1)
	go func() {
		_, sent, ok := m.Send(7, stop)
		res <- outcome{sent, ok}
	}()
	time.Sleep(5 * time.Millisecond) // let the sender publish and park
	close(stop)
	select {
	case o := <-res:
		if !o.sent || o.ok {
			t.Fatalf("Send = (sent=%v, ok=%v), want (true, false)", o.sent, o.ok)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Send did not return after stop closed")
	}
}

// TestMailboxStartWaitOutOfOrder: one producer keeps several Start tickets
// outstanding on one mailbox and redeems them in reverse order, lap after
// lap of a small ring; every Wait must return its own request's reply.
func TestMailboxStartWaitOutOfOrder(t *testing.T) {
	m := NewMailbox[int, int](8)
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			req, tk, _, ok := m.Next()
			if !ok {
				if !m.Park(done) {
					return
				}
				continue
			}
			m.Reply(tk, req*2)
		}
	}()
	var tks [5]Ticket
	for lap := 0; lap < 20; lap++ {
		for i := range tks {
			tk, sent := m.Start(lap*10+i, nil)
			if !sent {
				t.Fatalf("lap %d: Start(%d) not sent", lap, i)
			}
			tks[i] = tk
		}
		for i := len(tks) - 1; i >= 0; i-- {
			if rep, ok := m.Wait(tks[i], nil); !ok || rep != (lap*10+i)*2 {
				t.Fatalf("lap %d: Wait(ticket %d) = (%d, %v), want (%d, true)", lap, i, rep, ok, (lap*10+i)*2)
			}
		}
	}
}

// TestMailboxStopBetweenStartAndWait: stop closes while two tickets are
// outstanding and only the first was answered. The answered one still
// yields its reply; the other gives up at once instead of waiting forever.
func TestMailboxStopBetweenStartAndWait(t *testing.T) {
	m := NewMailbox[int, int](4)
	stop := make(chan struct{})
	tk1, sent1 := m.Start(1, stop)
	tk2, sent2 := m.Start(2, stop)
	if !sent1 || !sent2 {
		t.Fatal("Start with room in the ring must publish")
	}
	req, tk, _, ok := m.Next()
	if !ok || req != 1 {
		t.Fatalf("Next = (%d, %v), want the first request", req, ok)
	}
	m.Reply(tk, 100)
	close(stop)
	type outcome struct {
		rep int
		ok  bool
	}
	res := make(chan [2]outcome, 1)
	go func() {
		var o [2]outcome
		o[1].rep, o[1].ok = m.Wait(tk2, stop)
		o[0].rep, o[0].ok = m.Wait(tk1, stop)
		res <- o
	}()
	select {
	case o := <-res:
		if o[0] != (outcome{100, true}) || o[1] != (outcome{0, false}) {
			t.Fatalf("answered ticket = %+v, want {100 true}; unanswered = %+v, want {0 false}", o[0], o[1])
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not return after stop closed")
	}
}

// TestMailboxLateReplyAfterStop pins the shutdown-drain contract: a reply
// written while the producer is giving up is still picked up (ok=true) —
// the last-chance seq check in Wait.
func TestMailboxLateReplyAfterStop(t *testing.T) {
	m := NewMailbox[int, int](4)
	stop := make(chan struct{})
	close(stop) // stop already fired: await takes the last-chance path
	// Serve the request from a goroutine racing the Send.
	go func() {
		for {
			req, tk, fire, ok := m.Next()
			if ok && !fire {
				m.Reply(tk, req+1)
				return
			}
		}
	}()
	rep, sent, ok := m.Send(10, stop)
	if !sent {
		t.Fatal("Send with room in the ring must publish even when stop is closed")
	}
	if ok && rep != 11 {
		t.Fatalf("late reply = %d, want 11", rep)
	}
	// ok=false is also legal (the consumer lost the race entirely); what
	// must never happen is a wrong reply, checked above.
}

// TestMailboxPollArmNudge drives the pieces a producer that runs the
// consumer's side itself uses: Poll redeems without blocking and only once,
// Arm reports a reply already in, and Nudge rings the oldest waiting
// request's bell, looking past a request whose producer armed none.
func TestMailboxPollArmNudge(t *testing.T) {
	m := NewMailbox[int, int](8)
	rung := func(b *Bell) bool {
		select {
		case <-b.ch:
			return true
		default:
			return false
		}
	}
	t1, _ := m.Start(1, nil)
	t2, _ := m.Start(2, nil)
	if _, ok := m.Poll(t1); ok {
		t.Fatal("Poll redeemed a request the consumer has not answered")
	}
	b := NewBell()
	if m.Arm(t2, b) {
		t.Fatal("Arm reported a reply that was never written")
	}
	if !m.Pending() {
		t.Fatal("Pending = false with two requests published")
	}
	m.Nudge()
	if !rung(b) {
		t.Fatal("Nudge did not reach the bell armed behind an unarmed request")
	}

	req, tk, _, ok := m.Next()
	if !ok || req != 1 {
		t.Fatalf("Next = (%d, %v), want (1, true)", req, ok)
	}
	m.Reply(tk, 10)
	if rep, ok := m.Poll(t1); !ok || rep != 10 {
		t.Fatalf("Poll(t1) = (%d, %v), want (10, true)", rep, ok)
	}
	if _, ok := m.Poll(t1); ok {
		t.Fatal("a ticket was redeemed twice")
	}
	req, tk, _, _ = m.Next()
	m.Reply(tk, req*10)
	if !rung(b) {
		t.Fatal("Reply did not ring the armed bell")
	}
	if !m.Arm(t2, nil) {
		t.Fatal("Arm did not report the reply already in")
	}
	if rep, ok := m.Poll(t2); !ok || rep != 20 {
		t.Fatalf("Poll(t2) = (%d, %v), want (20, true)", rep, ok)
	}
	if m.Pending() {
		t.Fatal("Pending = true on a drained ring")
	}
}
