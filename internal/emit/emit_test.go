package emit

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
)

// collectSink gathers events for assertions.
type collectSink struct {
	mu  sync.Mutex
	evs []Event
}

func (s *collectSink) Consume(ev Event) {
	s.mu.Lock()
	s.evs = append(s.evs, ev)
	s.mu.Unlock()
}
func (s *collectSink) Close() error { return nil }
func (s *collectSink) snapshot() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.evs...)
}

// TestBusDeliversInOrder: a single producer's events arrive at the sink
// complete and in emission order.
func TestBusDeliversInOrder(t *testing.T) {
	sink := &collectSink{}
	b := NewBus(64, sink)
	const n = 1000
	accepted := 0
	for i := 0; i < n; i++ {
		// The ring is 64 deep and the consumer runs concurrently, so some
		// emits may drop under scheduler jitter; order of the accepted
		// prefix per producer is what must hold.
		if b.Emit(Event{Kind: KindAccept, Txn: int64ToTxn(i)}) {
			accepted++
		}
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	evs := sink.snapshot()
	if len(evs) != accepted {
		t.Fatalf("sink got %d events, bus accepted %d", len(evs), accepted)
	}
	if got, want := b.Emitted(), uint64(accepted); got != want {
		t.Fatalf("Emitted() = %d, want %d", got, want)
	}
	if b.Emitted()+b.Dropped() != n {
		t.Fatalf("emitted %d + dropped %d != %d emits", b.Emitted(), b.Dropped(), n)
	}
	last := int64(-1)
	for _, ev := range evs {
		if int64(ev.Txn) <= last {
			t.Fatalf("out-of-order delivery: %d after %d", ev.Txn, last)
		}
		last = int64(ev.Txn)
	}
}

func int64ToTxn(i int) model.TxnID { return model.TxnID(i) }

// TestBusSaturationDropsNotBlocks: with no consumer progress (sink blocked),
// emitting past capacity returns false immediately and counts drops —
// the hot path's never-block guarantee.
func TestBusSaturationDropsNotBlocks(t *testing.T) {
	gate := make(chan struct{})
	blocked := &gatedSink{gate: gate}
	b := NewBus(8, blocked) // capacity rounds to 8
	// Fill the ring plus the one event the consumer is stuck holding.
	sent := 0
	for i := 0; i < 64; i++ {
		if b.Emit(Event{Kind: KindAccept}) {
			sent++
		}
	}
	if b.Dropped() == 0 {
		t.Fatalf("no drops after %d emits into a full capacity-8 ring", sent)
	}
	if sent > 8+1 {
		t.Fatalf("accepted %d events with a blocked consumer and capacity 8", sent)
	}
	// Release the consumer; everything accepted must still be delivered.
	close(gate)
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := blocked.n; got != sent {
		t.Fatalf("delivered %d, accepted %d", got, sent)
	}
}

type gatedSink struct {
	gate   chan struct{}
	opened bool
	n      int
}

func (s *gatedSink) Consume(Event) {
	if !s.opened {
		<-s.gate
		s.opened = true
	}
	s.n++
}
func (s *gatedSink) Close() error { return nil }

// TestBusConcurrentProducers: hammer the bus from many goroutines under
// -race; every accepted event is delivered exactly once, and per-producer
// order is preserved.
func TestBusConcurrentProducers(t *testing.T) {
	sink := &collectSink{}
	b := NewBus(1024, sink)
	const producers, per = 8, 5000
	var wg sync.WaitGroup
	var acceptedTotal sync.Map
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			n := 0
			for i := 0; i < per; i++ {
				if b.Emit(Event{Kind: KindAccept, Shard: int32(p), Incarnation: int64(i)}) {
					n++
				}
			}
			acceptedTotal.Store(p, n)
		}(p)
	}
	wg.Wait()
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	evs := sink.snapshot()
	want := 0
	acceptedTotal.Range(func(_, v any) bool { want += v.(int); return true })
	if len(evs) != want {
		t.Fatalf("delivered %d events, accepted %d", len(evs), want)
	}
	lastInc := map[int32]int64{}
	for _, ev := range evs {
		if prev, ok := lastInc[ev.Shard]; ok && ev.Incarnation <= prev {
			t.Fatalf("producer %d order violated: %d after %d", ev.Shard, ev.Incarnation, prev)
		}
		lastInc[ev.Shard] = ev.Incarnation
	}
}

// TestBusCloseIdempotentAndLateEmit: double Close is fine, and Emit after
// Close neither blocks nor panics.
func TestBusCloseIdempotentAndLateEmit(t *testing.T) {
	b := NewBus(8, &collectSink{})
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	for i := 0; i < 100; i++ {
		b.Emit(Event{Kind: KindAccept}) // must not block or panic
	}
}

// TestForShardStampsShard: the per-shard emitter forces the shard index.
func TestForShardStampsShard(t *testing.T) {
	sink := &collectSink{}
	b := NewBus(8, sink)
	em := ForShard(b, 3)
	em.Emit(Event{Kind: KindBegin, Shard: 99, Txn: 7})
	b.Close()
	evs := sink.snapshot()
	if len(evs) != 1 || evs[0].Shard != 3 {
		t.Fatalf("events = %+v, want one event with Shard=3", evs)
	}
	if ForShard(nil, 0) != nil {
		t.Fatalf("ForShard(nil bus) must be nil")
	}
}

// TestCaptureSinkJSONL: every event renders as one parseable JSON line
// with the documented fields.
func TestCaptureSinkJSONL(t *testing.T) {
	var buf bytes.Buffer
	s := NewCaptureSink(&buf)
	s.Consume(Event{Kind: KindCommit, Class: ClassOK, Shard: 2, Txn: 41, Incarnation: 9, DurNanos: 1500})
	s.Consume(Event{Kind: KindSweep, Class: ClassOK, Shard: 0, Txn: -1, N: 12})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("capture lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0 not JSON: %v\n%s", err, lines[0])
	}
	if rec["rec"] != "event" || rec["kind"] != "commit" || rec["class"] != "ok" ||
		rec["shard"] != float64(2) || rec["txn"] != float64(41) ||
		rec["inc"] != float64(9) || rec["dur_ns"] != float64(1500) {
		t.Fatalf("line 0 fields wrong: %v", rec)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if rec["kind"] != "sweep" || rec["n"] != float64(12) {
		t.Fatalf("line 1 fields wrong: %v", rec)
	}
}

// TestMetricsSinkEndpoint: counters, histograms, gauges, and drop counters
// all render in the exposition format.
func TestMetricsSinkEndpoint(t *testing.T) {
	m := NewMetricsSink()
	b := NewBus(16, m)
	m.SetBus(b)
	m.SetGauges(func() GaugeSnapshot {
		return GaugeSnapshot{
			QueueDepth: []int64{3, 0},
			Retained:   []int64{5, 7},
			Prepared:   []int64{0, 1},
		}
	})
	b.Emit(Event{Kind: KindAccept, Class: ClassOK, Shard: 0, Txn: 1})
	b.Emit(Event{Kind: KindVeto, Class: ClassCycle, Shard: 1, Txn: 2})
	b.Emit(Event{Kind: KindSweep, Class: ClassOK, Shard: 0, Txn: -1, N: 4})
	b.Emit(Event{Kind: KindCommit, Class: ClassOK, Shard: NoShard, Txn: 3, DurNanos: 2_000_000})
	b.Emit(Event{Kind: KindAbort, Class: ClassCycle, Shard: NoShard, Txn: 4, DurNanos: 100_000})
	b.Close()

	if got := m.Counter(0, KindAccept, ClassOK); got != 1 {
		t.Fatalf("Counter(0,accept,ok) = %d, want 1", got)
	}

	rr := httptest.NewRecorder()
	m.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body := rr.Body.String()
	for _, want := range []string{
		`txgc_events_total{shard="0",kind="accept",class="ok"} 1`,
		`txgc_events_total{shard="1",kind="veto",class="cycle"} 1`,
		`txgc_deleted_total{shard="0"} 4`,
		`txgc_sessions_total{outcome="ok"} 1`,
		`txgc_sessions_total{outcome="cycle"} 1`,
		`txgc_session_latency_seconds_bucket{outcome="ok",le="0.004"} 1`,
		`txgc_session_latency_seconds_count{outcome="ok"} 1`,
		`txgc_queue_depth{shard="0"} 3`,
		`txgc_retained{shard="1"} 7`,
		`txgc_prepared{shard="1"} 1`,
		`txgc_events_emitted_total 5`,
		`txgc_events_dropped_total 0`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
}

// TestKindClassStrings: names are what the wire and docs promise.
func TestKindClassStrings(t *testing.T) {
	if KindCrossVeto.String() != "cross-veto" || KindSweep.String() != "sweep" {
		t.Fatal("kind names drifted")
	}
	if ClassCrossCycle.String() != "cross-cycle" || ClassProtocol.String() != "protocol" {
		t.Fatal("class names drifted")
	}
	if Kind(200).String() != "unknown" || Class(200).String() != "unknown" {
		t.Fatal("out-of-range names must be unknown")
	}
}
