package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

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

// TestWireV2 negotiates the handshake and checks machine-readable codes,
// cross-shard 2PC commits, priority, and the deadline field.
func TestWireV2(t *testing.T) {
	s := testSession(t, client.Config{Shards: 4, Policy: "greedy-c1", Verify: true})

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
	bare := newSession(s.db)
	bare.handle(request{Op: "begin", Txn: 2, Footprint: []int32{0}})
	resp = bare.handle(request{Op: "read", Txn: 2, Entity: i32(1)})
	if resp.Outcome != "rejected" || resp.Aborted == nil || *resp.Aborted != 2 || resp.Code != "misroute" {
		t.Fatalf("hello-less misroute: %+v, want rejected/aborted=2/code=misroute", resp)
	}
	if resp := bare.handle(request{Op: "read", Txn: 99, Entity: i32(0)}); resp.Outcome != "rejected" || resp.Code != "txn-aborted" {
		t.Fatalf("hello-less unknown txn: %+v, want rejected/code=txn-aborted", resp)
	}
	resp = bare.handle(request{Op: "batch", Steps: []request{
		{Op: "begin", Txn: 5, Footprint: []int32{1}},
		{Op: "read", Txn: 5, Entity: i32(1)},
		{Op: "write", Txn: 5, Entities: []int32{1}},
	}})
	if resp.Outcome != "ok" || len(resp.Results) != 3 || !resp.Results[2].Completed {
		t.Fatalf("hello-less batch: %+v", resp)
	}
	if resp := bare.handle(request{Op: "stats"}); resp.Stats == nil || resp.Stats.Completed != 1 {
		t.Fatalf("stats: %+v", resp)
	}

	// A cross-partition transaction with a generous deadline commits
	// through the 2PC path.
	if resp := s.handle(request{Op: "begin", Txn: 1, Footprint: []int32{0, 1}, DeadlineMS: 60_000, Priority: "high"}); resp.Outcome != "accepted" {
		t.Fatalf("cross begin: %+v", resp)
	}
	if resp := s.handle(request{Op: "read", Txn: 1, Entity: i32(0)}); resp.Outcome != "accepted" {
		t.Fatalf("cross read: %+v", resp)
	}
	resp = s.handle(request{Op: "write", Txn: 1, Entities: []int32{0, 1}})
	if resp.Outcome != "accepted" || !resp.Completed {
		t.Fatalf("cross write: %+v", resp)
	}

	// Taxonomy codes on the wire: a conflict cycle answers code "cycle".
	s.handle(request{Op: "begin", Txn: 10, Footprint: []int32{0, 4}})
	s.handle(request{Op: "begin", Txn: 11, Footprint: []int32{0, 4}})
	s.handle(request{Op: "read", Txn: 10, Entity: i32(0)})
	s.handle(request{Op: "read", Txn: 11, Entity: i32(4)})
	if resp := s.handle(request{Op: "write", Txn: 11, Entities: []int32{0}}); resp.Outcome != "accepted" {
		t.Fatalf("T11 write: %+v", resp)
	}
	resp = s.handle(request{Op: "write", Txn: 10, Entities: []int32{4}})
	if resp.Outcome != "rejected" || resp.Code != "cycle" {
		t.Fatalf("cycle write: %+v, want rejected/code=cycle", resp)
	}
	// …and a dead transaction answers code "txn-aborted".
	resp = s.handle(request{Op: "read", Txn: 10, Entity: i32(0)})
	if resp.Outcome != "rejected" || resp.Code != "txn-aborted" {
		t.Fatalf("dead txn read: %+v, want code=txn-aborted", resp)
	}
	// Misroutes carry their own code.
	s.handle(request{Op: "begin", Txn: 20, Footprint: []int32{0}})
	resp = s.handle(request{Op: "read", Txn: 20, Entity: i32(1)})
	if resp.Code != "misroute" {
		t.Fatalf("misroute: %+v, want code=misroute", resp)
	}

	// An expired deadline aborts the transaction server-side.
	if resp := s.handle(request{Op: "begin", Txn: 30, Footprint: []int32{2}, DeadlineMS: 15}); resp.Outcome != "accepted" {
		t.Fatalf("deadline begin: %+v", resp)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp = s.handle(request{Op: "read", Txn: 30, Entity: i32(2)})
		if resp.Outcome == "rejected" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("deadline never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp.Code != "txn-aborted" || !strings.Contains(resp.Error, "deadline") {
		t.Fatalf("post-deadline read: %+v, want code=txn-aborted with a deadline cause", resp)
	}

	// Inside one batch, a step pipelined behind its own transaction's
	// rejected step is a dead-transaction answer too, not a protocol error.
	resp = s.handle(request{Op: "batch", Steps: []request{
		{Op: "begin", Txn: 50, Footprint: []int32{0}},
		{Op: "begin", Txn: 51, Footprint: []int32{0}},
		{Op: "read", Txn: 50, Entity: i32(0)},
		{Op: "write", Txn: 51, Entities: []int32{0, 4}},
		{Op: "read", Txn: 50, Entity: i32(4)},
		{Op: "write", Txn: 50, Entities: []int32{8}},
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
	s.handle(request{Op: "begin", Txn: 40, Footprint: []int32{3}})
	resp = s.handle(request{Op: "begin", Txn: 40, Footprint: []int32{3}})
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
	s.handle(request{Op: "begin", Txn: 1, Footprint: []int32{0}})
	s.handle(request{Op: "batch", Steps: []request{{Op: "begin", Txn: 2, Footprint: []int32{1}}}})
	s.cleanup()
	if got := db.Stats().Aborted; got != 2 {
		t.Fatalf("Aborted after cleanup = %d, want 2", got)
	}
	// Both IDs are free again.
	if resp := s.handle(request{Op: "begin", Txn: 1, Footprint: []int32{0}}); resp.Outcome != "accepted" {
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
