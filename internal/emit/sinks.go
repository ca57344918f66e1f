package emit

import (
	"io"
	"strconv"
	"sync"
)

// CaptureSink appends the event stream to a writer as JSON lines —
// one {"rec":"event",...} object per event — so a live session can be
// dumped and replayed offline. txgc-serve pairs it with the trace's step
// records ({"rec":"step",...}, appended at shutdown) in one capture file;
// see docs/observability.md for the format.
//
// Events are buffered; Close (or Flush) drains the buffer. The underlying
// writer is owned by the caller and is not closed.
type CaptureSink struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
}

// captureFlushAt flushes the buffer once it holds this many bytes.
const captureFlushAt = 1 << 15

// NewCaptureSink returns a capture sink appending to w.
func NewCaptureSink(w io.Writer) *CaptureSink {
	return &CaptureSink{w: w, buf: make([]byte, 0, captureFlushAt+256)}
}

// Consume implements Sink. Encoding is hand-rolled into a reused buffer so
// a multi-megaevent capture does not churn the garbage collector.
func (s *CaptureSink) Consume(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.buf
	b = append(b, `{"rec":"event","kind":"`...)
	b = append(b, ev.Kind.String()...)
	b = append(b, `","class":"`...)
	b = append(b, ev.Class.String()...)
	b = append(b, `","shard":`...)
	b = strconv.AppendInt(b, int64(ev.Shard), 10)
	b = append(b, `,"txn":`...)
	b = strconv.AppendInt(b, int64(ev.Txn), 10)
	if ev.Incarnation != 0 {
		b = append(b, `,"inc":`...)
		b = strconv.AppendInt(b, ev.Incarnation, 10)
	}
	if ev.N != 0 {
		b = append(b, `,"n":`...)
		b = strconv.AppendInt(b, ev.N, 10)
	}
	if ev.DurNanos != 0 {
		b = append(b, `,"dur_ns":`...)
		b = strconv.AppendInt(b, ev.DurNanos, 10)
	}
	b = append(b, "}\n"...)
	s.buf = b
	if len(s.buf) >= captureFlushAt {
		s.flushLocked()
	}
}

func (s *CaptureSink) flushLocked() {
	if len(s.buf) == 0 {
		return
	}
	s.w.Write(s.buf)
	s.buf = s.buf[:0]
}

// Flush writes out any buffered lines.
func (s *CaptureSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	return nil
}

// Close implements Sink: it flushes; the underlying writer stays open.
func (s *CaptureSink) Close() error { return s.Flush() }

// CountingSink counts events per kind and discards them — the no-op sink
// benchmarks attach so the measured cost is the bus, not a sink.
type CountingSink struct {
	mu     sync.Mutex
	counts [numKinds]uint64
}

// Consume implements Sink.
func (s *CountingSink) Consume(ev Event) {
	s.mu.Lock()
	if int(ev.Kind) < numKinds {
		s.counts[ev.Kind]++
	}
	s.mu.Unlock()
}

// Count returns how many events of kind k were consumed.
func (s *CountingSink) Count(k Kind) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(k) >= numKinds {
		return 0
	}
	return s.counts[k]
}

// Close implements Sink.
func (s *CountingSink) Close() error { return nil }
