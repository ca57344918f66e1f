package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// epoch is the zero of every span timestamp in this process.
var epoch = time.Now()

// now is nanoseconds since epoch on the monotonic clock.
func now() int64 { return int64(time.Since(epoch)) }

// A span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside the program are a later change). Trace is the
// TxnID the call served; Parent is the ID of the rung's transaction span
// (0 for a root).
type span struct {
	Name       string
	Trace      int64
	ID, Parent int32
	Start, End int64
}

// spanLog keeps every span of one goroutine in memory. All spans are
// aggregated into a histogram per name; a 1-in-64 sample of traces
// (whole transactions, so a sampled trace is complete) reaches disk.
// A nil *spanLog records nothing, which is the tracing-off path.
type spanLog struct {
	spans []span
	kinds map[string]*spanKind
	next  int32
}

// spanKind is one span name with its histogram, looked up once so a hot
// loop pays no map access per span.
type spanKind struct {
	name string
	h    hist
}

const traceSampleEvery = 64

func newSpanLog() *spanLog { return &spanLog{kinds: map[string]*spanKind{}} }

func (l *spanLog) kind(name string) *spanKind {
	if l == nil {
		return nil
	}
	k := l.kinds[name]
	if k == nil {
		k = &spanKind{name: name}
		l.kinds[name] = k
	}
	return k
}

// reserve hands out a span ID before the span ends, so children recorded
// while their parent is still open can name it.
func (l *spanLog) reserve() int32 {
	if l == nil {
		return 0
	}
	l.next++
	return l.next
}

// addAs stores one finished span under an ID reserve returned.
func (l *spanLog) addAs(id int32, k *spanKind, trace int64, parent int32, start, end int64) {
	if l == nil {
		return
	}
	k.h.record(end - start)
	if trace%traceSampleEvery == 0 {
		l.spans = append(l.spans, span{Name: k.name, Trace: trace, ID: id, Parent: parent, Start: start, End: end})
	}
}

// add stores one finished span and returns its ID.
func (l *spanLog) add(k *spanKind, trace int64, parent int32, start, end int64) int32 {
	id := l.reserve()
	l.addAs(id, k, trace, parent, start, end)
	return id
}

// hist returns the aggregate of one span name (empty if never recorded).
func (l *spanLog) hist(name string) *hist {
	if l == nil || l.kinds[name] == nil {
		return &hist{}
	}
	return &l.kinds[name].h
}

// merge folds another goroutine's log in; span IDs are offset so they stay
// unique within the merged log.
func (l *spanLog) merge(o *spanLog) {
	if l == nil || o == nil {
		return
	}
	off := l.next
	for _, s := range o.spans {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		l.spans = append(l.spans, s)
	}
	l.next += o.next
	for name, k := range o.kinds {
		dst := &l.kind(name).h
		for i, c := range k.h.b {
			dst.b[i] += c
		}
		dst.n += k.h.n
		dst.sum += k.h.sum
	}
}

// writeJSONL writes the sampled spans, one JSON object per line.
func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range l.spans {
		fmt.Fprintf(w, `{"name":%q,"trace":%d,"id":%d,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			s.Name, s.Trace, s.ID, s.Parent, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
