package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/txdel"
	"repro/txdel/client"
)

func testSession(t *testing.T, cfg client.Config) *session {
	t.Helper()
	db, err := client.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := db.Close(); err != nil {
			t.Errorf("Close (verify): %v", err)
		}
	})
	return newSession(db)
}

func i32(v int32) *int32 { return &v }

// door is one way to put a request to a session: handle called directly, or
// serve fed the request as a line of text.
type door func(request) response

func handleDoor(_ *testing.T, s *session) door { return s.handle }

// serveDoor runs s.serve on one end of a pipe; each call writes one request
// line and parses the one reply line.
func serveDoor(t *testing.T, s *session) door {
	t.Helper()
	cli, srv := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.serve(srv, srv)
	}()
	t.Cleanup(func() {
		cli.Close()
		<-done
	})
	replies := bufio.NewReader(cli)
	return func(req request) response {
		t.Helper()
		line, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Write(append(line, '\n')); err != nil {
			t.Fatal(err)
		}
		reply, err := replies.ReadBytes('\n')
		if err != nil {
			t.Fatalf("reply to %s: %v", line, err)
		}
		var resp response
		if err := json.Unmarshal(reply, &resp); err != nil {
			t.Fatalf("reply %q: %v", reply, err)
		}
		return resp
	}
}

// TestWireV2 negotiates the handshake and checks machine-readable codes,
// cross-shard 2PC commits, priority, and the deadline field — once through
// handle and once through serve as text, which must answer alike.
func TestWireV2(t *testing.T) {
	var transcripts [2][]string
	for i, d := range []struct {
		name string
		open func(*testing.T, *session) door
	}{{"handle", handleDoor}, {"serve", serveDoor}} {
		t.Run(d.name, func(t *testing.T) { transcripts[i] = wireV2Script(t, d.open) })
	}
	if !reflect.DeepEqual(transcripts[0], transcripts[1]) {
		t.Fatalf("handle and serve answered differently:\nhandle: %q\nserve:  %q", transcripts[0], transcripts[1])
	}
}

// wireV2Script drives the protocol through doors opened by open and returns
// every reply as JSON (of the deadline poll, only the last).
func wireV2Script(t *testing.T, open func(*testing.T, *session) door) (transcript []string) {
	db := testSession(t, client.Config{Shards: 4, Policy: "greedy-c1", Verify: true}).db
	note := func(resp response) response {
		b, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		transcript = append(transcript, string(b))
		return resp
	}
	// The script below reads as it did when it called session.handle.
	type via struct{ handle door }
	recorded := func(d door) via {
		return via{func(req request) response { return note(d(req)) }}
	}
	unrecorded := open(t, newSession(db))
	s := recorded(unrecorded)

	resp := s.handle(request{Op: "hello", Version: 2})
	if resp.Outcome != "ok" || resp.Version != 2 {
		t.Fatalf("hello: %+v", resp)
	}
	for _, v := range []int{1, 99} {
		if resp := s.handle(request{Op: "hello", Version: v}); resp.Outcome != "error" || resp.Code != "protocol" {
			t.Fatalf("hello version %d: %+v, want error/code=protocol", v, resp)
		}
	}

	// The handshake is optional: a session that never says hello is served
	// the same protocol, codes included.
	bare := recorded(open(t, newSession(db)))
	bare.handle(request{Op: "begin", Txn: 2, Footprint: []txdel.Entity{0}})
	resp = bare.handle(request{Op: "read", Txn: 2, Entity: i32(1)})
	if resp.Outcome != "rejected" || resp.Aborted == nil || *resp.Aborted != 2 || resp.Code != "misroute" {
		t.Fatalf("hello-less misroute: %+v, want rejected/aborted=2/code=misroute", resp)
	}
	if resp := bare.handle(request{Op: "read", Txn: 99, Entity: i32(0)}); resp.Outcome != "rejected" || resp.Code != "txn-aborted" {
		t.Fatalf("hello-less unknown txn: %+v, want rejected/code=txn-aborted", resp)
	}
	resp = bare.handle(request{Op: "batch", Steps: []request{
		{Op: "begin", Txn: 5, Footprint: []txdel.Entity{1}},
		{Op: "read", Txn: 5, Entity: i32(1)},
		{Op: "write", Txn: 5, Entities: []txdel.Entity{1}},
	}})
	if resp.Outcome != "ok" || len(resp.Results) != 3 || !resp.Results[2].Completed {
		t.Fatalf("hello-less batch: %+v", resp)
	}
	if resp := bare.handle(request{Op: "stats"}); resp.Stats == nil || resp.Stats.Completed != 1 {
		t.Fatalf("stats: %+v", resp)
	}

	// A cross-partition transaction with a generous deadline commits
	// through the 2PC path.
	if resp := s.handle(request{Op: "begin", Txn: 1, Footprint: []txdel.Entity{0, 1}, DeadlineMS: 60_000, Priority: "high"}); resp.Outcome != "accepted" {
		t.Fatalf("cross begin: %+v", resp)
	}
	if resp := s.handle(request{Op: "read", Txn: 1, Entity: i32(0)}); resp.Outcome != "accepted" {
		t.Fatalf("cross read: %+v", resp)
	}
	resp = s.handle(request{Op: "write", Txn: 1, Entities: []txdel.Entity{0, 1}})
	if resp.Outcome != "accepted" || !resp.Completed {
		t.Fatalf("cross write: %+v", resp)
	}

	// Taxonomy codes on the wire: a conflict cycle answers code "cycle".
	s.handle(request{Op: "begin", Txn: 10, Footprint: []txdel.Entity{0, 4}})
	s.handle(request{Op: "begin", Txn: 11, Footprint: []txdel.Entity{0, 4}})
	s.handle(request{Op: "read", Txn: 10, Entity: i32(0)})
	s.handle(request{Op: "read", Txn: 11, Entity: i32(4)})
	if resp := s.handle(request{Op: "write", Txn: 11, Entities: []txdel.Entity{0}}); resp.Outcome != "accepted" {
		t.Fatalf("T11 write: %+v", resp)
	}
	resp = s.handle(request{Op: "write", Txn: 10, Entities: []txdel.Entity{4}})
	if resp.Outcome != "rejected" || resp.Code != "cycle" {
		t.Fatalf("cycle write: %+v, want rejected/code=cycle", resp)
	}
	// …and a dead transaction answers code "txn-aborted".
	resp = s.handle(request{Op: "read", Txn: 10, Entity: i32(0)})
	if resp.Outcome != "rejected" || resp.Code != "txn-aborted" {
		t.Fatalf("dead txn read: %+v, want code=txn-aborted", resp)
	}
	// Misroutes carry their own code.
	s.handle(request{Op: "begin", Txn: 20, Footprint: []txdel.Entity{0}})
	resp = s.handle(request{Op: "read", Txn: 20, Entity: i32(1)})
	if resp.Code != "misroute" {
		t.Fatalf("misroute: %+v, want code=misroute", resp)
	}

	// An expired deadline aborts the transaction server-side.
	if resp := s.handle(request{Op: "begin", Txn: 30, Footprint: []txdel.Entity{2}, DeadlineMS: 15}); resp.Outcome != "accepted" {
		t.Fatalf("deadline begin: %+v", resp)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp = unrecorded(request{Op: "read", Txn: 30, Entity: i32(2)})
		if resp.Outcome == "rejected" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("deadline never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	note(resp)
	if resp.Code != "txn-aborted" || !strings.Contains(resp.Error, "deadline") {
		t.Fatalf("post-deadline read: %+v, want code=txn-aborted with a deadline cause", resp)
	}

	// Inside one batch, a step pipelined behind its own transaction's
	// rejected step is a dead-transaction answer too, not a protocol error.
	resp = s.handle(request{Op: "batch", Steps: []request{
		{Op: "begin", Txn: 50, Footprint: []txdel.Entity{0}},
		{Op: "begin", Txn: 51, Footprint: []txdel.Entity{0}},
		{Op: "read", Txn: 50, Entity: i32(0)},
		{Op: "write", Txn: 51, Entities: []txdel.Entity{0, 4}},
		{Op: "read", Txn: 50, Entity: i32(4)},
		{Op: "write", Txn: 50, Entities: []txdel.Entity{8}},
	}})
	if resp.Outcome != "ok" || len(resp.Results) != 6 {
		t.Fatalf("batch: %+v", resp)
	}
	if r := resp.Results[4]; r.Outcome != "rejected" || r.Code != "cycle" {
		t.Fatalf("batch cycle read: %+v, want rejected/code=cycle", r)
	}
	if r := resp.Results[5]; r.Outcome != "rejected" || r.Code != "txn-aborted" || r.Aborted == nil || *r.Aborted != 50 {
		t.Fatalf("batch step behind its own abort: %+v, want rejected/code=txn-aborted", r)
	}

	// Duplicate begins are protocol errors.
	s.handle(request{Op: "begin", Txn: 40, Footprint: []txdel.Entity{3}})
	resp = s.handle(request{Op: "begin", Txn: 40, Footprint: []txdel.Entity{3}})
	if resp.Outcome != "error" || resp.Code != "protocol" {
		t.Fatalf("duplicate begin: %+v, want error/code=protocol", resp)
	}
	// Abort answers "aborted" once, then the ID is unknown.
	if resp := s.handle(request{Op: "abort", Txn: 40}); resp.Outcome != "aborted" {
		t.Fatalf("abort: %+v", resp)
	}
	if resp := s.handle(request{Op: "abort", Txn: 40}); resp.Outcome != "error" {
		t.Fatalf("double abort: %+v", resp)
	}
	return transcript
}

// TestWireSessionCleanup: a disconnecting stream aborts whatever it left
// active (session and batch-path transactions alike).
func TestWireSessionCleanup(t *testing.T) {
	db, err := client.Open(client.Config{Shards: 2, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := db.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	s := newSession(db)
	s.handle(request{Op: "hello", Version: 2})
	s.handle(request{Op: "begin", Txn: 1, Footprint: []txdel.Entity{0}})
	s.handle(request{Op: "batch", Steps: []request{{Op: "begin", Txn: 2, Footprint: []txdel.Entity{1}}}})
	s.cleanup()
	if got := db.Stats().Aborted; got != 2 {
		t.Fatalf("Aborted after cleanup = %d, want 2", got)
	}
	// Both IDs are free again.
	if resp := s.handle(request{Op: "begin", Txn: 1, Footprint: []txdel.Entity{0}}); resp.Outcome != "accepted" {
		t.Fatalf("reuse after cleanup: %+v", resp)
	}
	s.handle(request{Op: "abort", Txn: 1})
}

// TestWireOverlongLine: a request line over the scanner's cap ends the
// session, but not silently — the client gets one protocol-error reply, and
// whatever the stream left active is aborted.
func TestWireOverlongLine(t *testing.T) {
	s := testSession(t, client.Config{Shards: 2, Verify: true})
	in := `{"op":"begin","txn":1,"footprint":[0]}` + "\n" + strings.Repeat("x", maxRequestLine+1) + "\n"
	var out bytes.Buffer
	s.serve(strings.NewReader(in), &out)
	want := `{"txn":1,"outcome":"accepted"}` + "\n" +
		`{"outcome":"error","error":"request line exceeds 1 MiB","code":"protocol"}` + "\n"
	if got := out.String(); got != want {
		t.Fatalf("replies = %q, want %q", got, want)
	}
	if got := s.db.Stats().Aborted; got != 1 {
		t.Fatalf("Aborted after the session ended = %d, want 1", got)
	}
}

// countingWriter keeps what serve writes and counts the Write calls — the
// write(2)s a connection would pay.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// chunkReader hands over one chunk per Read, as a socket hands over one
// segment.
type chunkReader struct{ chunks []string }

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.chunks[0])
	if r.chunks[0] = r.chunks[0][n:]; r.chunks[0] == "" {
		r.chunks = r.chunks[1:]
	}
	return n, nil
}

// TestServeCoalescesReplies: eight pipelined requests that arrive in one
// read are answered in order by one write — hand-coded and encoding/json
// replies alike — and the same eight arriving one per read get a write each.
func TestServeCoalescesReplies(t *testing.T) {
	requests := []string{
		`{"op":"hello","version":2}`,
		`{"op":"begin","txn":1,"footprint":[0,4]}`,
		`{"op":"read","txn":1,"entity":4}`,
		`{"op":"begin","txn":2,"footprint":[1]}`,
		`{"op":"write","txn":1,"entities":[0]}`,
		`{"op":"read","txn":2,"entity":2}`,
		`{"op":"stats"}`,
		`{"op":"nonsense","txn":7}`,
	}
	want := []string{
		`{"outcome":"ok","version":2}`,
		`{"txn":1,"outcome":"accepted"}`,
		`{"txn":1,"outcome":"accepted"}`,
		`{"txn":2,"outcome":"accepted"}`,
		`{"txn":1,"outcome":"accepted","completed":true}`,
		`{"txn":2,"outcome":"rejected","aborted":2,"error":`,
		`{"outcome":"ok","stats":{`,
		`{"txn":7,"outcome":"error","error":"unknown op \"nonsense\"","code":"protocol"}`,
	}
	for _, tc := range []struct {
		name   string
		chunks []string
		writes int
	}{
		{"one read", []string{strings.Join(requests, "\n") + "\n"}, 1},
		{"a read each", func() (each []string) {
			for _, r := range requests {
				each = append(each, r+"\n")
			}
			return each
		}(), len(requests)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testSession(t, client.Config{Shards: 4, Verify: true})
			var out countingWriter
			s.serve(&chunkReader{chunks: tc.chunks}, &out)
			replies := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
			if len(replies) != len(want) {
				t.Fatalf("%d replies, want %d: %q", len(replies), len(want), out.String())
			}
			for i, reply := range replies {
				if !strings.HasPrefix(reply, want[i]) {
					t.Errorf("reply %d = %s, want %s…", i, reply, want[i])
				}
			}
			if out.writes != tc.writes {
				t.Errorf("%d writes for %d requests, want %d", out.writes, len(requests), tc.writes)
			}
		})
	}
}

// TestServeAnswersBeforeBlocking: holding replies back must never mean
// holding them while waiting for input. A lone request is answered with the
// stream still open, and so is a request that arrives with the first half
// of the next one.
func TestServeAnswersBeforeBlocking(t *testing.T) {
	s := testSession(t, client.Config{Shards: 2, Verify: true})
	cli, srv := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.serve(srv, srv)
	}()
	defer func() {
		cli.Close()
		<-done
	}()
	if err := cli.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	replies := bufio.NewReader(cli)
	for _, step := range []struct{ send, want string }{
		{`{"op":"begin","txn":1,"footprint":[0]}` + "\n", `{"txn":1,"outcome":"accepted"}`},
		{`{"op":"read","txn":1,"entity":0}` + "\n" + `{"op":"write","txn":1,`, `{"txn":1,"outcome":"accepted"}`},
		{`"entities":[0]}` + "\n", `{"txn":1,"outcome":"accepted","completed":true}`},
	} {
		if _, err := cli.Write([]byte(step.send)); err != nil {
			t.Fatal(err)
		}
		reply, err := replies.ReadString('\n')
		if err != nil {
			t.Fatalf("after sending %q: %v (reply withheld while the input is open?)", step.send, err)
		}
		if reply != step.want+"\n" {
			t.Fatalf("after sending %q: reply %q, want %q", step.send, reply, step.want)
		}
	}
}

// TestServeLineFraming: CRLF endings, blank lines, a line longer than the
// read buffer and an unterminated last line are all served, and readLine
// cuts any input — around the 1 MiB cap too — exactly where the
// bufio.Scanner it replaced did.
func TestServeLineFraming(t *testing.T) {
	s := testSession(t, client.Config{Shards: 2, Verify: true})
	long := `{"op":"batch",` + strings.Repeat(" ", 70<<10) + `"steps":[{"op":"begin","txn":2,"footprint":[1]},{"op":"write","txn":2,"entities":[1]}]}`
	in := `{"op":"begin","txn":1,"footprint":[0]}` + "\r\n" +
		"\n\r\n" +
		`{"op":"read","txn":1,"entity":0}` + "\n" +
		long + "\n" +
		`{"op":"write","txn":1,"entities":[0]}`
	want := `{"txn":1,"outcome":"accepted"}` + "\n" +
		`{"txn":1,"outcome":"accepted"}` + "\n" +
		`{"outcome":"ok","results":[{"txn":2,"outcome":"accepted"},{"txn":2,"outcome":"accepted","completed":true}]}` + "\n" +
		`{"txn":1,"outcome":"accepted","completed":true}` + "\n"
	var out bytes.Buffer
	s.serve(strings.NewReader(in), &out)
	if got := out.String(); got != want {
		t.Fatalf("replies = %q, want %q", got, want)
	}

	// scanned is the reference: the lines (blank ones included) a Scanner set
	// up as serve's used to be yields, and whether it gave up on a long one.
	scanned := func(r io.Reader) (lines []string, tooLong bool) {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 1<<16), maxRequestLine)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		return lines, errors.Is(sc.Err(), bufio.ErrTooLong)
	}
	framed := func(r io.Reader) (lines []string, tooLong bool) {
		br := bufio.NewReaderSize(r, ioBufSize)
		var spill []byte
		for {
			line, err := readLine(br, &spill)
			if errors.Is(err, errLineTooLong) {
				return lines, true
			}
			if err == nil || len(line) > 0 {
				lines = append(lines, string(line))
			}
			if err != nil {
				return lines, false
			}
		}
	}
	x := func(n int) string { return strings.Repeat("x", n) }
	for name, input := range map[string]string{
		"empty":                   "",
		"blank lines":             "\n\r\n\n",
		"bare CR":                 "a\r",
		"CR inside":               "a\rb\r\r\nc",
		"buffer-sized line":       x(ioBufSize-1) + "\n" + x(ioBufSize) + "\n" + x(ioBufSize+1) + "\r\n",
		"largest line":            "a\n" + x(maxRequestLine-1) + "\nb\n",
		"largest line, CRLF":      x(maxRequestLine-2) + "\r\nb",
		"one byte over":           "a\n" + x(maxRequestLine) + "\nb\n",
		"largest unterminated":    "a\n" + x(maxRequestLine-1),
		"unterminated at the cap": x(maxRequestLine),
		"over after an offset":    x(100) + "\n" + x(maxRequestLine+5) + "\n",
	} {
		// Whole, and in uneven segments that straddle every boundary.
		for _, seg := range []int{len(input) + 1, 7919} {
			var chunks []string
			for rest := input; rest != ""; {
				n := min(seg, len(rest))
				chunks, rest = append(chunks, rest[:n]), rest[n:]
			}
			wantLines, wantLong := scanned(&chunkReader{chunks: append([]string(nil), chunks...)})
			gotLines, gotLong := framed(&chunkReader{chunks: chunks})
			if gotLong != wantLong || !reflect.DeepEqual(gotLines, wantLines) {
				t.Errorf("%s (segments of %d): %d lines, too long %v; the Scanner: %d lines, too long %v",
					name, seg, len(gotLines), gotLong, len(wantLines), wantLong)
			}
		}
	}
}

// flakyListener fails its first Accepts as a process out of descriptors
// does, then hands out the connections it is sent.
type flakyListener struct {
	fails int
	conns chan net.Conn
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails > 0 {
		l.fails--
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept4", syscall.EMFILE)}
	}
	c, ok := <-l.conns
	if !ok {
		return nil, net.ErrClosed
	}
	return c, nil
}

func (l *flakyListener) Close() error   { close(l.conns); return nil }
func (l *flakyListener) Addr() net.Addr { return nil }

// TestAcceptLoopSurvivesTransientErrors: running out of descriptors during
// a connection burst must not end the server (and with it every session of
// an in-memory engine) — the loop backs off, retries and serves the next
// connection; only a closed listener ends it.
func TestAcceptLoopSurvivesTransientErrors(t *testing.T) {
	db := testSession(t, client.Config{Shards: 2, Verify: true}).db
	ln := &flakyListener{fails: 2, conns: make(chan net.Conn, 1)}
	cli, srv := net.Pipe()
	defer cli.Close()
	ln.conns <- srv
	ended := make(chan error, 1)
	go func() { ended <- acceptLoop(ln, db) }()

	if err := cli.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(cli, `{"op":"hello","version":2}`+"\n"); err != nil {
		t.Fatalf("the loop did not survive EMFILE: %v", err)
	}
	reply, err := bufio.NewReader(cli).ReadString('\n')
	if err != nil || reply != `{"outcome":"ok","version":2}`+"\n" {
		t.Fatalf("hello after two failed accepts: %q, %v", reply, err)
	}
	ln.Close()
	if err := <-ended; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("acceptLoop ended with %v, want net.ErrClosed", err)
	}
}
