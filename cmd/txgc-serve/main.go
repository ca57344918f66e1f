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
// code "protocol"; a session that skips it is served the same protocol:
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
// engine submission (consecutive same-shard steps cost one queue hop
// instead of one each), answering with one result per step:
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
//	txgc-serve -shards 8 -policy greedy-c1 -sweep-every 16 -verify
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
	"sync"
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
	Op        string  `json:"op"`
	Txn       int64   `json:"txn"`
	Entity    *int32  `json:"entity,omitempty"`
	Entities  []int32 `json:"entities,omitempty"`
	Footprint []int32 `json:"footprint,omitempty"`
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

func entities(xs []int32) []txdel.Entity {
	out := make([]txdel.Entity, len(xs))
	for i, x := range xs {
		out[i] = txdel.Entity(x)
	}
	return out
}

// ownedTxn is one transaction begun on this stream: a client session (with
// its deadline cancel, if any), or a bare ID begun through the raw batch
// path.
type ownedTxn struct {
	txn    *client.Txn // nil for batch-path transactions
	cancel context.CancelFunc
}

// session serves one client stream. It tracks the transactions begun on
// this stream so a disconnect aborts whatever the client left active.
type session struct {
	db  *client.DB
	mu  sync.Mutex
	own map[txdel.TxnID]ownedTxn
}

func newSession(db *client.DB) *session {
	return &session{db: db, own: map[txdel.TxnID]ownedTxn{}}
}

func (s *session) track(id txdel.TxnID, o ownedTxn) {
	s.mu.Lock()
	s.own[id] = o
	s.mu.Unlock()
}

// untrack forgets id and releases its deadline timer.
func (s *session) untrack(id txdel.TxnID) {
	s.mu.Lock()
	o, ok := s.own[id]
	delete(s.own, id)
	s.mu.Unlock()
	if ok && o.cancel != nil {
		o.cancel()
	}
}

func (s *session) lookup(id txdel.TxnID) (ownedTxn, bool) {
	s.mu.Lock()
	o, ok := s.own[id]
	s.mu.Unlock()
	return o, ok
}

func (s *session) cleanup() {
	s.mu.Lock()
	owned := make(map[txdel.TxnID]ownedTxn, len(s.own))
	for id, o := range s.own {
		owned[id] = o
	}
	s.own = map[txdel.TxnID]ownedTxn{}
	s.mu.Unlock()
	for id, o := range owned {
		if o.txn != nil {
			_ = o.txn.Abort()
		} else {
			s.db.Abort(id)
		}
		if o.cancel != nil {
			o.cancel()
		}
	}
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
		return txdel.BeginDeclared(id, entities(sub.Footprint)...), nil
	case "read":
		if sub.Entity == nil {
			return txdel.Step{}, fmt.Errorf("read needs an entity")
		}
		return txdel.Read(id, txdel.Entity(*sub.Entity)), nil
	case "write":
		return txdel.WriteFinal(id, entities(sub.Entities)...), nil
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
			s.track(steps[i].Txn, ownedTxn{})
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
	opts := []client.BeginOption{client.WithID(id), client.WithFootprint(entities(req.Footprint)...)}
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
	s.track(id, ownedTxn{txn: txn, cancel: cancel})
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
		o, ok := s.lookup(id)
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
		o, ok := s.lookup(id)
		if !ok || o.txn == nil {
			return s.fromResult(req.Txn, s.db.SubmitBatch([]txdel.Step{txdel.WriteFinal(id, entities(req.Entities)...)})[0])
		}
		err := o.txn.Write(context.Background(), entities(req.Entities)...)
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
		o, ok := s.lookup(id)
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

func (s *session) serve(r io.Reader, w io.Writer) {
	defer s.cleanup()
	in := bufio.NewScanner(r)
	in.Buffer(make([]byte, 0, 1<<16), maxRequestLine)
	out := bufio.NewWriter(w)
	enc := json.NewEncoder(out)
	for in.Scan() {
		line := in.Bytes()
		if len(line) == 0 {
			continue
		}
		var req request
		var resp response
		if err := json.Unmarshal(line, &req); err != nil {
			resp = protoErr(nil, "bad request: "+err.Error())
		} else {
			resp = s.handle(req)
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
		if err := out.Flush(); err != nil {
			return
		}
	}
	if errors.Is(in.Err(), bufio.ErrTooLong) {
		// Scan stops for good at a line over its cap. Say why before hanging
		// up, or the client sees only a closed connection; best effort, as
		// the session ends either way.
		_ = enc.Encode(protoErr(nil, "request line exceeds 1 MiB"))
		_ = out.Flush()
	}
}

func main() {
	var (
		addr        = flag.String("addr", "", "TCP listen address (empty: serve stdin/stdout)")
		shards      = flag.Int("shards", 4, "number of entity partitions / scheduler goroutines")
		policyName  = flag.String("policy", "greedy-c1", "deletion policy per shard")
		batch       = flag.Int("batch", 64, "max steps a shard applies between GC opportunities")
		queue       = flag.Int("queue", 1024, "per-shard submission queue depth")
		sweepEvery  = flag.Int("sweep-every", 8, "sweep after this many completions per shard")
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
		Shards:                *shards,
		Policy:                *policyName,
		BatchSize:             *batch,
		QueueDepth:            *queue,
		SweepEveryCompletions: *sweepEvery,
		OverloadWatermark:     *watermark,
		RetentionWatermark:    *retention,
		Verify:                *verify,
		Trace:                 captureFile != nil,
		Sinks:                 sinks,
		DataDir:               *dataDir,
		FsyncBatch:            *fsyncBatch,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "txgc-serve:", err)
		os.Exit(2)
	}
	if rep := db.Recovery(); rep != nil {
		fmt.Fprintf(os.Stderr, "txgc-serve: recovered %d shards: %d records replayed, %d txns retained, %d orphans aborted, %d cross committed, %d cross aborted, %d in doubt\n",
			rep.Shards, rep.RecordsReplayed, rep.TxnsRetained, rep.OrphansAborted, rep.CrossCommitted, rep.CrossAborted, len(rep.InDoubt))
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
	for {
		conn, err := ln.Accept()
		if err != nil {
			fmt.Fprintln(os.Stderr, "txgc-serve:", err)
			shutdown(1)
		}
		go func(c net.Conn) {
			defer c.Close()
			newSession(db).serve(c, c)
		}(conn)
	}
}
