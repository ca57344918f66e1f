package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/workload"
)

// txnSource yields whole transactions (BEGIN, reads, final write) of a
// seeded generator. MaxActive 1 makes workload.Gen emit one transaction's
// steps back to back; the interleaving across transactions is the load
// generator's job, not the stream's.
type txnSource struct{ g *workload.Gen }

func newTxnSource(sp *spec, seed int64, base model.TxnID) *txnSource {
	cfg := sp.Gen
	cfg.Seed, cfg.BaseTxnID = seed, base
	cfg.MaxActive, cfg.Txns = 1, 1<<40
	return &txnSource{g: workload.New(cfg)}
}

func (s *txnSource) next() []model.Step {
	steps := make([]model.Step, 0, 5)
	for {
		st, ok := s.g.Next()
		if !ok {
			panic("benchmark: generator exhausted")
		}
		steps = append(steps, st)
		if st.Kind == model.KindWriteFinal {
			return steps
		}
	}
}

// tally is what one driver saw, for the output check against the
// server's own counters and for the failure ratios.
type tally struct {
	steps     int64 // steps submitted (a batch op carries several)
	accepted  int64 // steps acknowledged as accepted
	begun     int64 // transactions started
	committed int64
	aborted   int64 // aborted by the scheduler: a decision, not a failure
	failedOps int64 // failed for a reason the user did not cause
	openTxns  int64 // open-loop transactions finished
	sloMiss   int64 // of those, over the latency limit, aborted or failed
}

func (t *tally) add(o tally) {
	t.steps += o.steps
	t.accepted += o.accepted
	t.begun += o.begun
	t.committed += o.committed
	t.aborted += o.aborted
	t.failedOps += o.failedOps
	t.openTxns += o.openTxns
	t.sloMiss += o.sloMiss
}

// liveTxn is a transaction with at most one wire op in flight.
type liveTxn struct {
	steps    []model.Step
	next     int
	intended int64 // when it was due to start, ns since epoch
	opStart  int64
	span     int32
	stats    bool // a stats op riding the reply FIFO, not a transaction
}

// phase is one timed (or counted) stretch of load on one connection.
type phase struct {
	open     bool
	startNS  int64
	endNS    int64
	interval int64 // open loop: ns between arrivals on this connection
	offset   int64 // open loop: first arrival, so two connections interleave
	depth    int   // closed loop: transactions kept in flight
	maxTxns  int   // stop after starting this many (warm-up); 0 = by time
	lat      *windows
	lagUS    []float64
}

// maxLive caps an open-loop backlog per connection; arrivals past it wait,
// and the wait counts because latency runs from the intended start.
const maxLive = 256

// connDriver drives one connection from one goroutine. Concurrency comes
// from interleaving live transactions over the connection's reply FIFO
// (the server answers a connection in order), never from more sockets.
type connDriver struct {
	sp       *spec
	wc       *wireConn
	src      *txnSource
	log      *spanLog
	kTxn     *spanKind
	kOp      [4]*spanKind // begin, read, write, batch
	inflight []*liveTxn
	head     int
	live     int
	tally    tally
	depthMax int64 // largest per-shard QueueDepth a stats op reported
	statsDue int64
}

func newConnDriver(sp *spec, wc *wireConn, src *txnSource, log *spanLog) *connDriver {
	d := &connDriver{sp: sp, wc: wc, src: src, log: log}
	d.kTxn = log.kind("txn")
	for i, n := range []string{"wire.begin", "wire.read", "wire.write", "wire.batch"} {
		d.kOp[i] = log.kind(n)
	}
	return d
}

func (d *connDriver) push(lt *liveTxn) { d.inflight = append(d.inflight, lt) }

func (d *connDriver) pop() *liveTxn {
	lt := d.inflight[d.head]
	d.inflight[d.head] = nil
	d.head++
	if d.head == len(d.inflight) {
		d.inflight, d.head = d.inflight[:0], 0
	}
	return lt
}

func (d *connDriver) waiting() int { return len(d.inflight) - d.head }

func (d *connDriver) start(intended, t int64, ph *phase) {
	lt := &liveTxn{steps: d.src.next(), intended: intended, span: d.log.reserve()}
	d.live++
	d.tally.begun++
	if ph.open {
		ph.lagUS = append(ph.lagUS, float64(t-intended)/1e3)
	}
	d.sendNext(lt, t)
}

func (d *connDriver) sendNext(lt *liveTxn, t int64) {
	if d.sp.BatchOp {
		d.wc.sendBatch(lt.steps)
		d.tally.steps += int64(len(lt.steps))
		lt.next = len(lt.steps)
	} else {
		d.wc.sendStep(lt.steps[lt.next])
		d.tally.steps++
		lt.next++
	}
	lt.opStart = t
	d.push(lt)
}

func (d *connDriver) onReply(line []byte, ph *phase) {
	lt := d.pop()
	t := now()
	if lt.stats {
		var r wireReply
		if json.Unmarshal(line, &r) == nil && r.Stats != nil {
			for _, q := range r.Stats.QueueDepth {
				d.depthMax = max(d.depthMax, q)
			}
		}
		return
	}
	id := int64(lt.steps[0].Txn)
	var v verdict
	if d.sp.BatchOp {
		var acc int
		v, acc = batchVerdict(line, len(lt.steps))
		d.tally.accepted += int64(acc)
		d.log.add(d.kOp[3], id, lt.span, lt.opStart, t)
	} else {
		v = stepVerdict(line)
		if v == vAccepted || v == vCommitted {
			d.tally.accepted++
		}
		d.log.add(d.kOp[lt.steps[lt.next-1].Kind-model.KindBegin], id, lt.span, lt.opStart, t)
	}
	switch v {
	case vAccepted:
		d.sendNext(lt, t)
		return
	case vCommitted:
		d.tally.committed++
	case vAborted:
		d.tally.aborted++
	default:
		d.tally.failedOps++
	}
	d.live--
	lat := float64(t-lt.intended) / 1e3
	switch {
	case v != vCommitted:
	case ph.open:
		ph.lat.add(t-ph.startNS, lat)
	default:
		ph.lat.inPhase(t - ph.startNS) // closed loop: commits are counted, not timed
	}
	if ph.open {
		d.tally.openTxns++
		if v != vCommitted || lat > d.sp.LimitUS {
			d.tally.sloMiss++
		}
	}
	d.log.addAs(lt.span, d.kTxn, id, 0, lt.intended, t)
}

// run drives one phase to its end and drains the transactions it started.
func (d *connDriver) run(ph *phase) error {
	nextStart := ph.startNS + ph.offset
	started := 0
	for {
		t := now()
		ending := t >= ph.endNS || (ph.maxTxns > 0 && started >= ph.maxTxns)
		if ending && d.live == 0 && d.waiting() == 0 {
			return d.wc.flush()
		}
		if !ending {
			if ph.open {
				for nextStart <= t && d.live < maxLive {
					d.start(nextStart, t, ph)
					nextStart += ph.interval
					started++
				}
			} else {
				for d.live < ph.depth && (ph.maxTxns == 0 || started < ph.maxTxns) {
					d.start(t, t, ph)
					started++
				}
			}
			if d.log != nil && t >= d.statsDue {
				// Traced runs read the server's queue depths in-band once a
				// second: a server-side counter seen from outside.
				d.statsDue = t + int64(time.Second)
				d.wc.wbuf = append(d.wc.wbuf, `{"op":"stats"}`+"\n"...)
				d.push(&liveTxn{stats: true})
			}
		}
		// Replies already in the buffer cost no syscall; their follow-up
		// steps leave in one write.
		for d.wc.buffered() {
			line, _ := d.wc.readLine(0)
			d.onReply(line, ph)
		}
		if err := d.wc.flush(); err != nil {
			return err
		}
		// Wait for a reply — in the open loop only until the next arrival is
		// due (or, backlogged at maxLive, for a millisecond at a time).
		until := int64(0)
		if ph.open && !ending {
			until = min(nextStart, ph.endNS)
			if until <= t {
				until = t + int64(time.Millisecond)
			}
		}
		if d.waiting() == 0 {
			if until > 0 {
				if _, err := d.wc.readable(until); err != nil {
					return err
				}
			}
			continue
		}
		line, err := d.wc.readLine(until)
		if err == errTimeout {
			continue
		}
		if err != nil {
			d.tally.failedOps += int64(d.waiting())
			return fmt.Errorf("%s: %d ops in flight: %w", d.sp.Name, d.waiting(), err)
		}
		d.onReply(line, ph)
	}
}
