package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/txdel/client"
)

// The three requests of a transaction as benchmark/wire.go's appendStep
// writes them, and the replies they get.
const (
	stepBegin = `{"op":"begin","txn":7,"footprint":[0,4,8,12]}`
	stepRead  = `{"op":"read","txn":7,"entity":4}`
	stepWrite = `{"op":"write","txn":7,"entities":[0,8]}`
)

var stepReplies = []response{
	{Txn: ref(7), Outcome: "accepted"},
	{Txn: ref(7), Outcome: "accepted"},
	{Txn: ref(7), Outcome: "accepted", Completed: true},
}

// wireExamples are the request lines of the package doc, README.md's
// txgc-serve section, the verify notes and benchmark/wire.go, plus the near
// misses decodeStep must leave to encoding/json.
var wireExamples = []string{
	stepBegin, stepRead, stepWrite,
	`{"op":"hello","version":2}`,
	`{"op":"begin","txn":1,"footprint":[0,5,9],"deadline_ms":500,"priority":"high"}`,
	`{"op":"begin","txn":1,"footprint":[0,4],"deadline_ms":500}`,
	`{"op":"begin","txn":1,"footprint":[0,4]}`,
	`{"op":"read","txn":1,"entity":5}`,
	`{"op":"read","txn":1,"entity":4}`,
	`{"op":"write","txn":1,"entities":[5,9]}`,
	`{"op":"write","txn":1,"entities":[0]}`,
	`{"op":"abort","txn":1}`,
	`{"op":"stats"}`,
	`{"op":"batch","steps":[{"op":"begin","txn":1,"footprint":[0,4]},{"op":"read","txn":1,"entity":4},{"op":"write","txn":1,"entities":[0]}]}`,
	`{"op":"begin","txn":-3,"footprint":[]}`,
	`{"op":"write","txn":0,"entities":[-2147483648,2147483647]}`,
	`{"txn":9223372036854775807,"entity":0,"op":"read"}`,
	`{"op":"read","txn":1}`,
	`{"op":"read","txn":1,"entity":4,"entities":[1],"footprint":[2]}`,
	// Declined: valid JSON outside the canonical shape, then invalid JSON.
	`{"op": "read", "txn": 1, "entity": 4}`,
	`{"op":"read","txn":1,"entity":4} `,
	`{"op":"read","txn":1,"txn":2,"entity":4}`,
	`{"Op":"read","TXN":1,"entity":4}`,
	`{"op":"re\u0061d","txn":1,"entity":4}`,
	`{"\u006fp":"read","txn":1,"entity":4}`,
	`{"op":"read","txn":1.0,"entity":4}`,
	`{"op":"read","txn":1e2,"entity":4}`,
	`{"op":"read","txn":-0,"entity":4}`,
	`{"op":"read","txn":1,"entity":null}`,
	`{"op":"write","txn":1,"entities":null}`,
	`{"op":"read","txn":9223372036854775808,"entity":4}`,
	`{"op":"read","txn":1,"entity":2147483648}`,
	`{"op":"write","txn":1,"entities":[2147483648]}`,
	`{"op":"read","txn":1,"entity":4,"extra":true}`,
	`{"txn":1,"entity":4}`,
	`{}`,
	`{"op":"read","txn":01,"entity":4}`,
	`{"op":"read","txn":1,"entity":4}}`,
	`{"op":"read","txn":1,"entity":4,}`,
	`{"op":"write","txn":1,"entities":[0,]}`,
	`{"op":"write","txn":1,"entities":[0`,
	`{"op":"read","txn":-,"entity":4}`,
	`{"op":"read"`,
	`[]`,
	`x`,
}

// TestCodecTakesTheStepPath: the fuzzers only say the codec is right where
// it accepts; this says it accepts the shapes the per-step path is for, and
// declines what the issue lists.
func TestCodecTakesTheStepPath(t *testing.T) {
	for _, line := range []string{stepBegin, stepRead, stepWrite,
		`{"op":"begin","txn":-3,"footprint":[]}`, `{"txn":9223372036854775807,"entity":0,"op":"read"}`} {
		var req request
		if !decodeStep([]byte(line), &req) {
			t.Errorf("decodeStep declined %s", line)
		}
	}
	for _, line := range []string{
		`{"op":"hello","version":2}`, `{"op":"stats"}`, `{"op":"abort","txn":1}`,
		`{"op":"batch","steps":[{"op":"read","txn":1,"entity":4}]}`,
		`{"op":"begin","txn":1,"footprint":[0],"deadline_ms":500}`,
		`{"op":"begin","txn":1,"footprint":[0],"priority":"high"}`,
		`{"op":"read","txn":1,"txn":2,"entity":4}`, `{"Op":"read","txn":1,"entity":4}`,
		`{"op":"re\u0061d","txn":1,"entity":4}`, `{"op":"read","txn":1.0,"entity":4}`,
		`{"op":"read","txn":1,"entity":null}`, `{"op":"read","txn":1,"entity":2147483648}`,
		`{"op":"read","txn":1,"entity":4} `, ` {"op":"read","txn":1,"entity":4}`,
	} {
		req := request{Op: "untouched"}
		if decodeStep([]byte(line), &req) || req.Op != "untouched" || req.Txn != 0 {
			t.Errorf("decodeStep(%s) took the line or wrote to the request: %+v", line, req)
		}
	}
	for i := range stepReplies {
		if _, ok := appendReply(nil, &stepReplies[i]); !ok {
			t.Errorf("appendReply declined %+v", stepReplies[i])
		}
	}
	for _, resp := range []response{
		{Outcome: "ok", Stats: &client.Stats{}},
		{Outcome: "ok", Results: []response{{Outcome: "accepted"}}},
		{Outcome: "error", Error: "a\tb"},
		{Outcome: "error", Error: "a<b"},
		{Outcome: "error", Error: "caf\u00e9"},
	} {
		prefix := []byte("kept")
		if b, ok := appendReply(prefix, &resp); ok || string(b) != "kept" {
			t.Errorf("appendReply(%+v) = %q, %v; want it declined and dst returned as it came", resp, b, ok)
		}
	}
}

// FuzzDecodeStep: whatever decodeStep accepts, json.Unmarshal accepts and
// decodes to the same request.
func FuzzDecodeStep(f *testing.F) {
	for _, line := range wireExamples {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var got, want request
		if !decodeStep(line, &got) {
			if !reflect.DeepEqual(got, request{}) {
				t.Fatalf("decodeStep declined %q yet wrote %+v", line, got)
			}
			return
		}
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("decodeStep accepted %q, json.Unmarshal says %v", line, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decodeStep %+v, json.Unmarshal %+v", line, got, want)
		}
	})
}

// FuzzAppendReply: whatever appendReply accepts, it prints as json.Encoder
// does.
func FuzzAppendReply(f *testing.F) {
	// has: bit 0 txn present, bit 1 aborted present, bit 2 completed.
	f.Add(uint8(1), int64(1), int64(0), "accepted", "", "", 0)
	f.Add(uint8(5), int64(1), int64(0), "accepted", "", "", 0)
	f.Add(uint8(0), int64(0), int64(0), "ok", "", "", 2)
	f.Add(uint8(3), int64(0), int64(0), "aborted", "", "", 0)
	f.Add(uint8(3), int64(-5), int64(-9223372036854775808), "rejected", `engine: T1:r(4): transaction aborted`, "txn-aborted", 0)
	f.Add(uint8(1), int64(7), int64(0), "error", `unknown op "nonsense"`, "protocol", 0)
	f.Add(uint8(0), int64(0), int64(0), "error", "request line exceeds 1 MiB", "protocol", 0)
	f.Add(uint8(0), int64(0), int64(0), "error", "bad request: invalid character '<' looking for beginning of value", "protocol", 0)
	f.Add(uint8(0), int64(0), int64(0), "error", "a\\b\"c&d>e\x00\x1f\x7f\n\t\b\f", "protocol", -1)
	f.Add(uint8(0), int64(0), int64(0), "error", "line\u2028sep\u2029 caf\u00e9 \xff\xc0\x80", "protocol", 0)
	f.Add(uint8(0), int64(0), int64(0), "", "", "", 0)
	for _, code := range []string{"cycle", "cross-cycle", "misroute", "txn-aborted", "straggler-aborted", "protocol", "closed", "internal"} {
		f.Add(uint8(3), int64(9), int64(9), "rejected", "engine: refused", code, 0)
	}
	f.Fuzz(func(t *testing.T, has uint8, txn, aborted int64, outcome, errText, code string, version int) {
		resp := response{Outcome: outcome, Completed: has&4 != 0, Error: errText, Code: code, Version: version}
		if has&1 != 0 {
			resp.Txn = &txn
		}
		if has&2 != 0 {
			resp.Aborted = &aborted
		}
		got, ok := appendReply([]byte("kept"), &resp)
		if !ok {
			if string(got) != "kept" {
				t.Fatalf("appendReply declined %+v yet returned %q", resp, got)
			}
			return
		}
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "kept"+string(want)+"\n" {
			t.Fatalf("%+v:\nappendReply  %q\njson.Marshal %q", resp, got[len("kept"):], want)
		}
	})
}

var (
	sinkRequest request
	sinkBytes   []byte
)

// BenchmarkWireStep is one transaction's worth of codec work — decode a
// begin with a four-entity footprint, a read and a write, encode their
// three replies — by hand and by encoding/json as serve used to.
func BenchmarkWireStep(b *testing.B) {
	lines := [][]byte{[]byte(stepBegin), []byte(stepRead), []byte(stepWrite)}
	b.Run("codec=hand", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for b.Loop() {
			for _, line := range lines {
				if !decodeStep(line, &sinkRequest) {
					b.Fatalf("declined %s", line)
				}
			}
			for i := range stepReplies {
				var ok bool
				if buf, ok = appendReply(buf[:0], &stepReplies[i]); !ok {
					b.Fatalf("declined %+v", stepReplies[i])
				}
			}
		}
		sinkBytes = buf
	})
	b.Run("codec=json", func(b *testing.B) {
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		b.ReportAllocs()
		for b.Loop() {
			for _, line := range lines {
				var req request
				if err := json.Unmarshal(line, &req); err != nil {
					b.Fatal(err)
				}
				sinkRequest = req
			}
			out.Reset()
			for _, resp := range stepReplies {
				if err := enc.Encode(resp); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// burstReader is a client that keeps depth requests in flight: every Read
// hands over the next depth steps of a stream of four-step transactions.
type burstReader struct {
	depth, bursts int
	step          int
	buf           []byte
}

func (r *burstReader) Read(p []byte) (int, error) {
	if r.bursts == 0 {
		return 0, io.EOF
	}
	r.bursts--
	r.buf = r.buf[:0]
	for range r.depth {
		txn, x := r.step/4, r.step/4%64
		switch r.step % 4 {
		case 0:
			r.buf = fmt.Appendf(r.buf, `{"op":"begin","txn":%d,"footprint":[%d,%d]}`+"\n", txn, x, x+64)
		case 1, 2:
			r.buf = fmt.Appendf(r.buf, `{"op":"read","txn":%d,"entity":%d}`+"\n", txn, x)
		case 3:
			r.buf = fmt.Appendf(r.buf, `{"op":"write","txn":%d,"entities":[%d]}`+"\n", txn, x+64)
		}
		r.step++
	}
	return copy(p, r.buf), nil
}

// BenchmarkServePipelined runs serve against a client eight requests deep
// over an in-memory engine; writes/op is the number of writes one burst of
// eight costs.
func BenchmarkServePipelined(b *testing.B) {
	db, err := client.Open(client.Config{Shards: 4, Policy: "greedy-c1"})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	var out countingWriter
	b.ReportAllocs()
	b.ResetTimer()
	newSession(db).serve(&burstReader{depth: 8, bursts: b.N}, &out)
	b.StopTimer()
	if n := bytes.Count(out.Bytes(), []byte(`"outcome":"accepted"`)); n != 8*b.N {
		b.Fatalf("%d of %d steps accepted", n, 8*b.N)
	}
	b.ReportMetric(float64(out.writes)/float64(b.N), "writes/op")
}
