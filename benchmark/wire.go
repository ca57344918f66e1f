package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
)

// wireConn is one client connection speaking wire v2, driven the way a C
// client would: a blocking socket, raw read/write, select(2) for a timed
// wait. Going around Go's netpoller matters for the open loop — a runtime
// timer that fires while every P is idle is rounded up to a millisecond,
// which would show up as generator lateness — and it keeps one connection
// on one goroutine. Requests are appended to wbuf and leave in one write.
type wireConn struct {
	f        *os.File // owns fd
	fd       int
	rbuf     []byte
	r, w     int
	wbuf     []byte
	bytesIn  int64
	bytesOut int64
}

var errTimeout = errors.New("benchmark: read timed out")

// stallTimeout bounds any blocking read, so a hung server fails the run
// instead of hanging it.
const stallTimeout = 10 * time.Second

func dialWire(addr string) (*wireConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	// File dups the socket (TCP_NODELAY, set by the dialer, stays with it);
	// Fd puts it in blocking mode.
	f, err := c.(*net.TCPConn).File()
	c.Close()
	if err != nil {
		return nil, err
	}
	wc := &wireConn{f: f, fd: int(f.Fd()), rbuf: make([]byte, 1<<16), wbuf: make([]byte, 0, 1<<12)}
	tv := syscall.NsecToTimeval(int64(stallTimeout))
	if err := syscall.SetsockoptTimeval(wc.fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv); err != nil {
		f.Close()
		return nil, err
	}
	wc.wbuf = append(wc.wbuf, `{"op":"hello","version":2}`+"\n"...)
	line, err := wc.roundTrip()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	if !bytes.Contains(line, []byte(`"version":2`)) {
		f.Close()
		return nil, fmt.Errorf("hello: unexpected reply %s", line)
	}
	return wc, nil
}

func (wc *wireConn) close() { wc.f.Close() }

func (wc *wireConn) flush() error {
	for b := wc.wbuf; len(b) > 0; {
		n, err := syscall.Write(wc.fd, b)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			wc.wbuf = wc.wbuf[:0]
			return err
		}
		wc.bytesOut += int64(n)
		b = b[n:]
	}
	wc.wbuf = wc.wbuf[:0]
	return nil
}

// buffered reports whether a complete reply line is already in rbuf.
func (wc *wireConn) buffered() bool {
	return bytes.IndexByte(wc.rbuf[wc.r:wc.w], '\n') >= 0
}

// readable waits until the socket has data or untilNS (on the now() clock)
// passes.
func (wc *wireConn) readable(untilNS int64) (bool, error) {
	for {
		wait := untilNS - now()
		if wait <= 0 {
			return false, nil
		}
		var fds syscall.FdSet
		fds.Bits[wc.fd/64] |= 1 << (uint(wc.fd) % 64)
		tv := syscall.NsecToTimeval(wait)
		n, err := syscall.Select(wc.fd+1, &fds, nil, nil, &tv)
		if err == syscall.EINTR {
			continue
		}
		return n > 0, err
	}
}

// readLine returns the next reply line (valid until the next call). With
// untilNS > 0 it gives up at that time on the now() clock, returning
// errTimeout and keeping any partial line; otherwise it blocks, bounded by
// stallTimeout.
func (wc *wireConn) readLine(untilNS int64) ([]byte, error) {
	for {
		if i := bytes.IndexByte(wc.rbuf[wc.r:wc.w], '\n'); i >= 0 {
			line := wc.rbuf[wc.r : wc.r+i]
			wc.r += i + 1
			return line, nil
		}
		if wc.r == wc.w {
			wc.r, wc.w = 0, 0
		} else if wc.w == len(wc.rbuf) {
			if wc.r == 0 {
				wc.rbuf = append(wc.rbuf, make([]byte, len(wc.rbuf))...)
			} else {
				wc.w = copy(wc.rbuf, wc.rbuf[wc.r:wc.w])
				wc.r = 0
			}
		}
		if untilNS > 0 {
			ok, err := wc.readable(untilNS)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, errTimeout
			}
		}
		n, err := syscall.Read(wc.fd, wc.rbuf[wc.w:])
		switch {
		case err == syscall.EINTR:
		case err == syscall.EAGAIN:
			return nil, fmt.Errorf("no reply within %v", stallTimeout)
		case err != nil:
			return nil, err
		case n == 0:
			return nil, io.EOF
		default:
			wc.w += n
			wc.bytesIn += int64(n)
		}
	}
}

func appendEntities(b []byte, xs []model.Entity) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// appendStep encodes one begin/read/write request object (no newline).
func appendStep(b []byte, st model.Step) []byte {
	switch st.Kind {
	case model.KindBegin:
		b = append(b, `{"op":"begin","txn":`...)
		b = strconv.AppendInt(b, int64(st.Txn), 10)
		b = append(b, `,"footprint":`...)
		b = appendEntities(b, st.Entities)
	case model.KindRead:
		b = append(b, `{"op":"read","txn":`...)
		b = strconv.AppendInt(b, int64(st.Txn), 10)
		b = append(b, `,"entity":`...)
		b = strconv.AppendInt(b, int64(st.Entity), 10)
	default:
		b = append(b, `{"op":"write","txn":`...)
		b = strconv.AppendInt(b, int64(st.Txn), 10)
		b = append(b, `,"entities":`...)
		b = appendEntities(b, st.Entities)
	}
	return append(b, '}')
}

func (wc *wireConn) sendStep(st model.Step) {
	wc.wbuf = append(appendStep(wc.wbuf, st), '\n')
}

func (wc *wireConn) sendBatch(steps []model.Step) {
	wc.wbuf = append(wc.wbuf, `{"op":"batch","steps":[`...)
	for i, st := range steps {
		if i > 0 {
			wc.wbuf = append(wc.wbuf, ',')
		}
		wc.wbuf = appendStep(wc.wbuf, st)
	}
	wc.wbuf = append(wc.wbuf, "]}\n"...)
}

func (wc *wireConn) sendAbort(id model.TxnID) {
	wc.wbuf = append(wc.wbuf, `{"op":"abort","txn":`...)
	wc.wbuf = strconv.AppendInt(wc.wbuf, int64(id), 10)
	wc.wbuf = append(wc.wbuf, "}\n"...)
}

// wireReply is the decoded shape of a server response.
type wireReply struct {
	Outcome   string        `json:"outcome"`
	Completed bool          `json:"completed"`
	Code      string        `json:"code"`
	Error     string        `json:"error"`
	Results   []wireReply   `json:"results"`
	Stats     *engine.Stats `json:"stats"`
}

// verdict classifies what one step's reply means for its transaction.
type verdict uint8

const (
	vAccepted  verdict = iota // step accepted, transaction still live
	vCommitted                // final write accepted
	vAborted                  // the scheduler aborted the transaction (a decision)
	vFailed                   // failed for a reason the user did not cause
)

var (
	litAccepted  = []byte(`"outcome":"accepted"`)
	litCompleted = []byte(`"completed":true`)
)

// abortCodes are the scheduler's decisions; anything else that is not an
// accept is a failure.
func abortCode(code string) bool {
	switch code {
	case "cycle", "cross-cycle", "straggler-aborted", "txn-aborted":
		return true
	}
	return false
}

func (r *wireReply) verdict() verdict {
	switch {
	case r.Outcome == "accepted" && r.Completed:
		return vCommitted
	case r.Outcome == "accepted":
		return vAccepted
	case abortCode(r.Code):
		return vAborted
	default:
		return vFailed
	}
}

// stepVerdict classifies a per-step reply line, decoding JSON only off the
// accepted fast path.
func stepVerdict(line []byte) verdict {
	if bytes.Contains(line, litAccepted) {
		if bytes.Contains(line, litCompleted) {
			return vCommitted
		}
		return vAccepted
	}
	var r wireReply
	if err := json.Unmarshal(line, &r); err != nil {
		return vFailed
	}
	return r.verdict()
}

// batchVerdict classifies a whole-transaction batch reply: the verdict of
// the transaction plus how many of its n steps were accepted.
func batchVerdict(line []byte, n int) (verdict, int) {
	if bytes.Count(line, litAccepted) == n && bytes.Contains(line, litCompleted) {
		return vCommitted, n
	}
	var r wireReply
	if err := json.Unmarshal(line, &r); err != nil || r.Outcome != "ok" || len(r.Results) != n {
		return vFailed, 0
	}
	out, accepted := vAccepted, 0
	for i := range r.Results {
		switch v := r.Results[i].verdict(); v {
		case vAccepted:
			accepted++
		case vCommitted:
			accepted++
			out = vCommitted
		case vAborted:
			if out != vFailed {
				out = vAborted
			}
		default:
			out = vFailed
		}
	}
	if out == vAccepted {
		// Every step accepted yet no commit: the batch did not hold a whole
		// transaction, which this generator never sends.
		out = vFailed
	}
	return out, accepted
}

// statsOp fetches the server's counters over the connection.
func (wc *wireConn) statsOp() (*engine.Stats, error) {
	wc.wbuf = append(wc.wbuf, `{"op":"stats"}`+"\n"...)
	if err := wc.flush(); err != nil {
		return nil, err
	}
	line, err := wc.readLine(0)
	if err != nil {
		return nil, err
	}
	var r wireReply
	if err := json.Unmarshal(line, &r); err != nil {
		return nil, err
	}
	if r.Stats == nil {
		return nil, fmt.Errorf("stats: reply without stats: %s", line)
	}
	return r.Stats, nil
}

// roundTrip sends what is buffered and reads one reply.
func (wc *wireConn) roundTrip() ([]byte, error) {
	if err := wc.flush(); err != nil {
		return nil, err
	}
	return wc.readLine(0)
}
