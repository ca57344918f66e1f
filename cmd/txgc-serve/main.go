// Command txgc-serve runs the sharded conflict-graph engine as a
// JSON-lines transaction service over the public txdel/client session API:
// clients submit begin/read/write steps and receive accept/reject/abort
// outcomes as the engine schedules (and garbage-collects) in real time.
//
// # Wire protocol v2
//
// Every failed response carries a machine-readable "code" field mapped from
// the client error taxonomy, and a begin may carry a deadline and a
// priority. A session may open with a versioned handshake (hello), which
// answers the one version this server speaks and refuses any other with
// code "protocol"; a session that skips it is served the same protocol.
// Clients may pipeline — send further requests without waiting for replies.
// Replies come back in request order, and are flushed together once the
// server has read everything sent so far, so a lone request is answered at
// once and a burst costs one write:
//
//	{"op":"hello","version":2}                    → {"outcome":"ok","version":2}
//	{"op":"begin","txn":1,"footprint":[0,5,9],"deadline_ms":500,"priority":"high"}
//	                                              → {"txn":1,"outcome":"accepted"}
//	{"op":"read","txn":1,"entity":5}              → {"txn":1,"outcome":"accepted"}
//	{"op":"write","txn":1,"entities":[5,9]}       → {"txn":1,"outcome":"accepted","completed":true}
//	{"op":"abort","txn":1}                        → {"txn":1,"outcome":"aborted"}
//	{"op":"stats"}                                → {"outcome":"ok","stats":{...}}
//
// Error codes: "cycle" (conflict cycle on one shard), "cross-cycle" (cycle
// spanning shard graphs, caught by the cross-arc registry), "misroute"
// (entity outside the declared footprint's partitions), "txn-aborted"
// (step for a dead or unknown transaction — deadline expiry included),
// "overload" (admission control shed the begin; retry later or use
// "priority":"high"), "straggler-aborted" (the retention governor reaped
// the transaction as the oldest live straggler; shorten it, retry, or use
// "priority":"high"), "protocol" (duplicate begin, malformed request), and
// "closed". A begin's deadline_ms starts a timer that aborts the
// transaction when it expires — even between PREPARE and the commit
// decision of a cross-shard write, releasing prepared pins everywhere.
//
// The batch op pipelines several begin/read/write steps through a single
// engine submission (each shard applies its steps in submission order, one
// shard visit per shard instead of one per step, the free shards first),
// answering with one result per step:
//
//	{"op":"batch","steps":[{"op":"begin","txn":1,"footprint":[0,4]},
//	                       {"op":"read","txn":1,"entity":4},
//	                       {"op":"write","txn":1,"entities":[0]}]}
//	→ {"outcome":"ok","results":[{"txn":1,"outcome":"accepted"},
//	                             {"txn":1,"outcome":"accepted"},
//	                             {"txn":1,"outcome":"accepted","completed":true}]}
//
// A begin footprint spanning several partitions (entity mod shards) marks
// the transaction cross-partition: it runs as one sub-transaction per
// participating shard, its reads apply immediately on their owning shards,
// and the final write commits through the cross-shard two-phase protocol.
// Concurrent transactions on other shards (and on the participants) are
// never disturbed.
//
// Usage:
//
//	txgc-serve                          # serve stdin/stdout
//	txgc-serve -addr :7433              # serve TCP, one session per conn
//	txgc-serve -shards 8 -policy greedy-c1 -verify
//	txgc-serve -overload-watermark 256  # shed begins on saturated shards
//	txgc-serve -retention-watermark 512 # reap stragglers pinning retained storage
//	txgc-serve -data-dir /var/lib/txgc  # per-shard WAL + checkpoints; recover on start
//	txgc-serve -data-dir d -fsync-batch 1  # strict durability: fsync before every ack
//
// With -verify the server keeps a full trace and, at shutdown (stdin EOF
// or SIGINT/SIGTERM), replays the accepted subschedule through the offline
// CSR referee, reporting the verdict on stderr.
//
// # Observability
//
//	txgc-serve -metrics-addr :9090      # Prometheus text endpoint on /metrics
//	txgc-serve -capture run.jsonl       # event stream + step trace for replay
//
// -metrics-addr serves per-outcome event counters, per-shard queue-depth/
// retained/prepared gauges, and session latency histograms in the
// Prometheus text format. -capture appends every lifecycle event as a JSON
// line ({"rec":"event",...}) while the server runs and, at shutdown, the
// full step trace ({"rec":"step",...}) — one file holding both halves of
// the record/replay contract (see docs/observability.md). Telemetry never
// blocks the engine: under sink pressure events are dropped and counted
// (txgc_events_dropped_total), never queued against the hot path.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/emit"
	"repro/txdel"
	"repro/txdel/client"
)

// wireVersion is the wire protocol this server speaks.
const wireVersion = 2

// maxRequestLine caps one request line (a large batch op is the long one).
const maxRequestLine = 1 << 20

type request struct {
	Op        string         `json:"op"`
	Txn       int64          `json:"txn"`
	Entity    *int32         `json:"entity,omitempty"`
	Entities  []txdel.Entity `json:"entities,omitempty"`
	Footprint []txdel.Entity `json:"footprint,omitempty"`
	// Version is the hello op's requested protocol version.
	Version int `json:"version,omitempty"`
	// DeadlineMS (begin) bounds the transaction's lifetime.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Priority (begin) is "" / "normal" or "high" (bypasses admission
	// control).
	Priority string `json:"priority,omitempty"`
	// Steps carries the sub-requests of a batch op (begin/read/write
	// only); the whole pipeline is submitted in one engine call.
	Steps []request `json:"steps,omitempty"`
}

// response uses pointers for txn and aborted so that transaction ID 0 (a
// perfectly valid ID) still serializes instead of vanishing to omitempty.
type response struct {
	Txn       *int64 `json:"txn,omitempty"`
	Outcome   string `json:"outcome"`
	Completed bool   `json:"completed,omitempty"`
	Aborted   *int64 `json:"aborted,omitempty"`
	Error     string `json:"error,omitempty"`
	// Code is the machine-readable error code (client.ErrorCode).
	Code    string        `json:"code,omitempty"`
	Version int           `json:"version,omitempty"`
	Stats   *client.Stats `json:"stats,omitempty"`
	// Results holds one response per step of a batch op.
	Results []response `json:"results,omitempty"`
}

func ref(v int64) *int64 { return &v }

// ownedTxn is one transaction begun on this stream: a client session (with
// its deadline cancel, if any), or a bare ID begun through the raw batch
// path.
type ownedTxn struct {
	txn    *client.Txn // nil for batch-path transactions
	cancel context.CancelFunc
}

// session serves one client stream. It tracks the transactions begun on
// this stream so a disconnect aborts whatever the client left active. A
// session belongs to a single goroutine — serve, and the cleanup it defers —
// so own needs no lock (a deadline's expiry callback lives inside client.Txn).
type session struct {
	db  *client.DB
	own map[txdel.TxnID]ownedTxn
}

func newSession(db *client.DB) *session {
	return &session{db: db, own: map[txdel.TxnID]ownedTxn{}}
}

// untrack forgets id and releases its deadline timer.
func (s *session) untrack(id txdel.TxnID) {
	o, ok := s.own[id]
	delete(s.own, id)
	if ok && o.cancel != nil {
		o.cancel()
	}
}

func (s *session) cleanup() {
	for id, o := range s.own {
		if o.txn != nil {
			_ = o.txn.Abort()
		} else {
			s.db.Abort(id)
		}
		if o.cancel != nil {
			o.cancel()
		}
	}
	clear(s.own)
}

// finish annotates a response from an operation error: outcome
// classification, human-readable message, and the wire code.
func finish(out response, err error) response {
	if err == nil {
		if out.Outcome == "" {
			out.Outcome = "accepted"
		}
		return out
	}
	if errors.Is(err, client.ErrProtocol) || errors.Is(err, client.ErrClosed) {
		out.Outcome = "error"
	} else {
		out.Outcome = "rejected"
	}
	out.Error = err.Error()
	out.Code = client.ErrorCode(err)
	return out
}

// stepOf translates one batchable sub-request into a scheduler step.
func stepOf(sub request) (txdel.Step, error) {
	id := txdel.TxnID(sub.Txn)
	switch sub.Op {
	case "begin":
		return txdel.BeginDeclared(id, sub.Footprint...), nil
	case "read":
		if sub.Entity == nil {
			return txdel.Step{}, fmt.Errorf("read needs an entity")
		}
		return txdel.Read(id, txdel.Entity(*sub.Entity)), nil
	case "write":
		return txdel.WriteFinal(id, sub.Entities...), nil
	default:
		return txdel.Step{}, fmt.Errorf("op %q cannot appear in a batch", sub.Op)
	}
}

// handleBatch submits a pipeline of steps through one engine batch call,
// answering with one result per step.
func (s *session) handleBatch(req request) response {
	if len(req.Steps) == 0 {
		return protoErr(nil, "batch needs steps")
	}
	steps := make([]txdel.Step, len(req.Steps))
	for i, sub := range req.Steps {
		st, err := stepOf(sub)
		if err != nil {
			return protoErr(nil, fmt.Sprintf("batch step %d: %v", i, err))
		}
		steps[i] = st
	}
	results := s.db.SubmitBatch(steps)
	out := response{Outcome: "ok", Results: make([]response, len(results))}
	for i, res := range results {
		if req.Steps[i].Op == "begin" && res.Accepted() {
			s.own[steps[i].Txn] = ownedTxn{}
		}
		out.Results[i] = s.fromResult(int64(steps[i].Txn), res)
	}
	return out
}

// protoErr is a malformed-request response.
func protoErr(txn *int64, msg string) response {
	return response{Txn: txn, Outcome: "error", Error: msg, Code: "protocol"}
}

func (s *session) handleBegin(req request) response {
	id := txdel.TxnID(req.Txn)
	ctx := context.Background()
	var cancel context.CancelFunc
	if req.DeadlineMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
	}
	opts := []client.BeginOption{client.WithID(id), client.WithFootprint(req.Footprint...)}
	if req.Priority == "high" {
		opts = append(opts, client.WithPriority(client.PriorityHigh))
	}
	txn, err := s.db.Begin(ctx, opts...)
	if err != nil {
		if cancel != nil {
			cancel()
		}
		return finish(response{Txn: ref(req.Txn)}, err)
	}
	s.own[id] = ownedTxn{txn: txn, cancel: cancel}
	return response{Txn: ref(req.Txn), Outcome: "accepted"}
}

func (s *session) handle(req request) response {
	id := txdel.TxnID(req.Txn)
	switch req.Op {
	case "hello":
		if req.Version != wireVersion {
			return protoErr(nil, fmt.Sprintf("unsupported protocol version %d (this server speaks %d)", req.Version, wireVersion))
		}
		return response{Outcome: "ok", Version: wireVersion}
	case "begin":
		return s.handleBegin(req)
	case "read":
		if req.Entity == nil {
			return protoErr(ref(req.Txn), "read needs an entity")
		}
		x := txdel.Entity(*req.Entity)
		o, ok := s.own[id]
		if !ok || o.txn == nil {
			// Not a session of this stream (begun elsewhere, or via the raw
			// batch path): submit the bare step.
			return s.fromResult(req.Txn, s.db.SubmitBatch([]txdel.Step{txdel.Read(id, x)})[0])
		}
		err := o.txn.Read(context.Background(), x)
		out := finish(response{Txn: ref(req.Txn)}, err)
		if err != nil && !errors.Is(err, client.ErrProtocol) {
			out.Aborted = ref(req.Txn)
			s.untrack(id)
		}
		return out
	case "write":
		o, ok := s.own[id]
		if !ok || o.txn == nil {
			return s.fromResult(req.Txn, s.db.SubmitBatch([]txdel.Step{txdel.WriteFinal(id, req.Entities...)})[0])
		}
		err := o.txn.Write(context.Background(), req.Entities...)
		out := finish(response{Txn: ref(req.Txn)}, err)
		if err == nil {
			out.Completed = true
			s.untrack(id)
		} else if !errors.Is(err, client.ErrProtocol) {
			out.Aborted = ref(req.Txn)
			s.untrack(id)
		}
		return out
	case "abort":
		o, ok := s.own[id]
		s.untrack(id)
		aborted := false
		if ok && o.txn != nil {
			aborted = o.txn.Abort() == nil
		} else {
			aborted = s.db.Abort(id)
		}
		if !aborted {
			return protoErr(ref(req.Txn), "unknown transaction")
		}
		return response{Txn: ref(req.Txn), Outcome: "aborted", Aborted: ref(req.Txn)}
	case "batch":
		return s.handleBatch(req)
	case "stats":
		st := s.db.Stats()
		return response{Outcome: "ok", Stats: &st}
	default:
		return protoErr(ref(req.Txn), fmt.Sprintf("unknown op %q", req.Op))
	}
}

// fromResult renders a raw-path engine Result.
func (s *session) fromResult(txn int64, res client.Result) response {
	out := finish(response{Txn: ref(txn)}, res.Err)
	if res.CompletedTxn != txdel.NoTxn {
		out.Completed = true
		s.untrack(res.CompletedTxn)
	}
	if res.Aborted != txdel.NoTxn {
		out.Aborted = ref(int64(res.Aborted))
		s.untrack(res.Aborted)
	}
	return out
}

// ioBufSize is the size of a session's read and write buffers: a burst of
// pipelined requests that fits is one read, and its replies one write.
const ioBufSize = 1 << 16

var errLineTooLong = errors.New("request line exceeds 1 MiB")

// readLine returns the next line of in without its "\n" or "\r\n", valid
// until the next call, framing exactly as a bufio.Scanner capped at
// maxRequestLine does: an unterminated last line is returned along with the
// read error that ended it, and maxRequestLine bytes with no newline in
// sight are errLineTooLong. A line longer than in's buffer is gathered in
// *spill.
func readLine(in *bufio.Reader, spill *[]byte) ([]byte, error) {
	*spill = (*spill)[:0]
	line, err := in.ReadSlice('\n')
	for errors.Is(err, bufio.ErrBufferFull) {
		if *spill = append(*spill, line...); len(*spill) >= maxRequestLine {
			return nil, errLineTooLong
		}
		line, err = in.ReadSlice('\n')
	}
	if len(*spill) > 0 {
		*spill = append(*spill, line...)
		line = *spill
	}
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, err
}

// requestBuffered reports whether a whole line is already in in's buffer,
// so that reading it cannot block.
func requestBuffered(in *bufio.Reader) bool {
	buf, _ := in.Peek(in.Buffered())
	return bytes.IndexByte(buf, '\n') >= 0
}

// respond answers one request line.
func (s *session) respond(line []byte) response {
	var req request
	if !decodeStep(line, &req) {
		// A fresh request, as json.Unmarshal merges into what it is given;
		// being of this block, only this path pays for its heap allocation.
		var fresh request
		if err := json.Unmarshal(line, &fresh); err != nil {
			return protoErr(nil, "bad request: "+err.Error())
		}
		req = fresh
	}
	return s.handle(req)
}

// serve answers the requests on r, one reply line each, in request order,
// until r ends. Clients may pipeline: replies are written to w only when
// the next read could block — no whole request line is left in the buffer —
// so a lone request is answered at once and a burst of N sent together is
// answered by one write.
func (s *session) serve(r io.Reader, w io.Writer) {
	defer s.cleanup()
	in := bufio.NewReaderSize(r, ioBufSize)
	out := bufio.NewWriterSize(w, ioBufSize)
	defer out.Flush() // best effort: the session ends either way
	enc := json.NewEncoder(out)
	var spill, reply []byte
	for {
		if out.Buffered() > 0 && !requestBuffered(in) {
			if err := out.Flush(); err != nil {
				return
			}
		}
		line, rerr := readLine(in, &spill)
		var resp response
		switch {
		case errors.Is(rerr, errLineTooLong):
			// Say why before hanging up, or the client sees only a closed
			// connection.
			resp = protoErr(nil, rerr.Error())
		case len(line) > 0:
			resp = s.respond(line)
		case rerr != nil:
			return
		default: // a blank line
			continue
		}
		var ok bool
		var err error
		if reply, ok = appendReply(reply[:0], &resp); ok {
			_, err = out.Write(reply)
		} else {
			err = enc.Encode(resp)
		}
		if err != nil || rerr != nil {
			return
		}
	}
}

// transientAccept reports whether a failed Accept is worth retrying: out of
// descriptors, a connection reset before it was accepted, a timeout.
func transientAccept(err error) bool {
	var ne net.Error
	return errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE) ||
		errors.Is(err, syscall.ECONNABORTED) || (errors.As(err, &ne) && ne.Timeout())
}

// acceptLoop serves one session per connection until the listener fails
// for good (it was closed). A failure that passes costs the waiting client a
// moment, never the live sessions their engine: log once per streak and
// retry, backing off as net/http's server does.
func acceptLoop(ln net.Listener, db *client.DB) error {
	var delay time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if !transientAccept(err) {
				return err
			}
			if delay == 0 {
				fmt.Fprintln(os.Stderr, "txgc-serve: accept:", err, "(retrying)")
				delay = 5 * time.Millisecond
			} else if delay *= 2; delay > time.Second {
				delay = time.Second
			}
			time.Sleep(delay)
			continue
		}
		delay = 0
		go func() {
			defer conn.Close()
			newSession(db).serve(conn, conn)
		}()
	}
}

func main() {
	var (
		addr        = flag.String("addr", "", "TCP listen address (empty: serve stdin/stdout)")
		shards      = flag.Int("shards", 4, "number of entity partitions, each with its own scheduler")
		policyName  = flag.String("policy", "greedy-c1", "deletion policy per shard")
		watermark   = flag.Int("overload-watermark", 0, "shed begins when a shard's backlog reaches this depth (0 = never shed)")
		retention   = flag.Int("retention-watermark", 0, "abort the oldest straggler when retained completed transactions reach this count (0 = never reap; needs a deletion policy)")
		verify      = flag.Bool("verify", false, "trace the run and check the accepted subschedule is CSR at shutdown")
		metricsAddr = flag.String("metrics-addr", "", "HTTP listen address for the Prometheus /metrics endpoint (empty: no metrics)")
		capturePath = flag.String("capture", "", "append the event stream (and, at shutdown, the step trace) to this file as JSON lines")
		dataDir     = flag.String("data-dir", "", "directory for per-shard write-ahead logs and checkpoints (empty: in-memory, no durability)")
		fsyncBatch  = flag.Int("fsync-batch", 0, "fsync the WAL every N records (1 = every record before its ack; 0 = default 64; needs -data-dir)")
	)
	flag.Parse()

	var sinks []emit.Sink
	var metrics *emit.MetricsSink
	if *metricsAddr != "" {
		metrics = emit.NewMetricsSink()
		sinks = append(sinks, metrics)
	}
	var captureFile *os.File
	if *capturePath != "" {
		f, err := os.Create(*capturePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "txgc-serve:", err)
			os.Exit(2)
		}
		captureFile = f
		sinks = append(sinks, emit.NewCaptureSink(f))
	}

	db, err := client.Open(client.Config{
		Shards:             *shards,
		Policy:             *policyName,
		OverloadWatermark:  *watermark,
		RetentionWatermark: *retention,
		Verify:             *verify,
		Trace:              captureFile != nil,
		Sinks:              sinks,
		DataDir:            *dataDir,
		FsyncBatch:         *fsyncBatch,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "txgc-serve:", err)
		os.Exit(2)
	}
	if rep := db.Recovery(); rep != nil {
		fmt.Fprintf(os.Stderr, "txgc-serve: recovered %d shards: %d records replayed, %d txns retained, %d orphans aborted, %d cross committed, %d cross aborted\n",
			rep.Shards, rep.RecordsReplayed, rep.TxnsRetained, rep.OrphansAborted, rep.CrossCommitted, rep.CrossAborted)
	}

	if metrics != nil {
		mux := http.NewServeMux()
		mux.Handle("/metrics", metrics)
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "txgc-serve:", err)
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "txgc-serve: metrics on http://"+ln.Addr().String()+"/metrics")
		go func() {
			if err := http.Serve(ln, mux); err != nil {
				fmt.Fprintln(os.Stderr, "txgc-serve: metrics server:", err)
			}
		}()
	}

	shutdown := func(code int) {
		st := db.Stats()
		fmt.Fprintf(os.Stderr, "txgc-serve: %d submitted, %d accepted, %d completed, %d shed, %d deleted by GC, %d cross (%d prepares, %d cross aborts)\n",
			st.Submitted, st.Accepted, st.Completed, st.Shed, st.Deleted, st.CrossTxns, st.Prepares, st.CrossAborts)
		if bus := db.Bus(); bus != nil {
			fmt.Fprintf(os.Stderr, "txgc-serve: telemetry: %d events emitted, %d dropped\n", bus.Emitted(), bus.Dropped())
		}
		// Close drains the bus first, so every live event line is flushed to
		// the capture file before the step trace is appended after it.
		if err := db.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "txgc-serve: VERIFY FAILED:", err)
			code = 1
		} else if *verify {
			fmt.Fprintln(os.Stderr, "txgc-serve: verify OK: accepted subschedule is CSR")
		}
		if captureFile != nil {
			if err := db.DumpTrace(captureFile); err != nil {
				fmt.Fprintln(os.Stderr, "txgc-serve: capture:", err)
				code = 1
			}
			if err := captureFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "txgc-serve: capture:", err)
				code = 1
			}
		}
		os.Exit(code)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		shutdown(0)
	}()

	if *addr == "" {
		newSession(db).serve(os.Stdin, os.Stdout)
		shutdown(0)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "txgc-serve:", err)
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, "txgc-serve: listening on", ln.Addr())
	fmt.Fprintln(os.Stderr, "txgc-serve:", acceptLoop(ln, db))
	shutdown(1)
}
