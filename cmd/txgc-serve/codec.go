package main

import (
	"strconv"

	"repro/txdel"
)

// The per-step codec: the three requests a transaction is made of and the
// replies they get, parsed and printed by hand. encoding/json remains the
// definition of the wire format — decodeStep accepts only lines whose
// json.Unmarshal result it can reproduce field for field, appendReply only
// responses whose json.Encoder bytes it can reproduce, and serve hands
// everything else to encoding/json. FuzzDecodeStep and FuzzAppendReply hold
// both to that.

// Bits of the keys decodeStep has seen, to refuse a repeated one.
const (
	keyOp = 1 << iota
	keyTxn
	keyEntity
	keyEntities
	keyFootprint
)

// decodeStep parses line into *req when it is the canonical begin, read or
// write request — one flat object, no whitespace, keys among op, txn,
// entity, entities and footprint at most once each, plain in-range integers
// — and reports whether it was. On false *req is untouched and the caller
// falls back to json.Unmarshal, which accepts a superset and owns every
// error message.
func decodeStep(line []byte, req *request) bool {
	if len(line) < 2 || line[0] != '{' {
		return false
	}
	var r request
	seen := 0
	p := line[1:]
	for {
		// "key":
		if len(p) == 0 || p[0] != '"' {
			return false
		}
		p = p[1:]
		k := 0
		for k < len(p) && p[k] != '"' {
			k++
		}
		if k+1 >= len(p) || p[k+1] != ':' {
			return false
		}
		key, bit := p[:k], 0
		p = p[k+2:]
		ok := false
		switch string(key) {
		case "op":
			bit = keyOp
			r.Op, p, ok = scanOp(p)
		case "txn":
			bit = keyTxn
			r.Txn, p, ok = scanInt(p, 64)
		case "entity":
			bit = keyEntity
			var v int64
			if v, p, ok = scanInt(p, 32); ok {
				e := int32(v)
				r.Entity = &e
			}
		case "entities":
			bit = keyEntities
			r.Entities, p, ok = scanEntities(p)
		case "footprint":
			bit = keyFootprint
			r.Footprint, p, ok = scanEntities(p)
		}
		if !ok || seen&bit != 0 || len(p) == 0 {
			return false
		}
		seen |= bit
		switch p[0] {
		case ',':
			p = p[1:]
		case '}':
			if len(p) != 1 || seen&keyOp == 0 {
				return false
			}
			*req = r
			return true
		default:
			return false
		}
	}
}

// scanOp reads one of the three step ops as a quoted string.
func scanOp(p []byte) (string, []byte, bool) {
	for _, op := range [...]string{"begin", "read", "write"} {
		n := len(op) + 2
		if len(p) >= n && p[0] == '"' && string(p[1:n-1]) == op && p[n-1] == '"' {
			return op, p[n:], true
		}
	}
	return "", p, false
}

// scanInt reads a JSON integer (no fraction, exponent, leading zero or
// "-0") that fits in a signed integer of the given width.
func scanInt(p []byte, bits uint) (int64, []byte, bool) {
	n := 0
	neg := len(p) > 0 && p[0] == '-'
	if neg {
		n++
	}
	d := n
	var u uint64
	for n < len(p) && '0' <= p[n] && p[n] <= '9' {
		u = u*10 + uint64(p[n]-'0')
		n++
	}
	// 19 digits cannot wrap a uint64, so the range test below is exact.
	if n == d || n-d > 19 || (p[d] == '0' && (n-d > 1 || neg)) {
		return 0, p, false
	}
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		limit++
	}
	if u > limit {
		return 0, p, false
	}
	if neg {
		return -int64(u), p[n:], true
	}
	return int64(u), p[n:], true
}

// scanEntities reads an array of entity numbers. The slice is allocated
// fresh — the engine keeps a transaction's footprint and write set — and
// is empty, not nil, for "[]", as json.Unmarshal leaves it.
func scanEntities(p []byte) ([]txdel.Entity, []byte, bool) {
	if len(p) < 2 || p[0] != '[' {
		return nil, p, false
	}
	p = p[1:]
	if p[0] == ']' {
		return []txdel.Entity{}, p[1:], true
	}
	n := 1
	for i := 0; i < len(p) && p[i] != ']'; i++ {
		if p[i] == ',' {
			n++
		}
	}
	xs := make([]txdel.Entity, 0, n)
	for {
		v, rest, ok := scanInt(p, 32)
		if !ok || len(rest) == 0 {
			return nil, p, false
		}
		xs = append(xs, txdel.Entity(v))
		p = rest[1:]
		switch rest[0] {
		case ',':
		case ']':
			return xs, p, true
		default:
			return nil, p, false
		}
	}
}

// appendReply appends the line json.Encoder writes for resp — same field
// order, same omitempty rules, trailing newline — and reports whether it
// could: a response carrying stats or batch results, or a string needing
// more than a backslash before '"' and '\', is left to the encoder (dst
// comes back unchanged).
//
//txgc:hotpath
func appendReply(dst []byte, resp *response) ([]byte, bool) {
	if resp.Stats != nil || len(resp.Results) > 0 {
		return dst, false
	}
	b := append(dst, '{')
	if resp.Txn != nil {
		b = strconv.AppendInt(append(b, `"txn":`...), *resp.Txn, 10)
		b = append(b, ',')
	}
	b, ok := appendString(append(b, `"outcome":`...), resp.Outcome)
	if !ok {
		return dst, false
	}
	if resp.Completed {
		b = append(b, `,"completed":true`...)
	}
	if resp.Aborted != nil {
		b = strconv.AppendInt(append(b, `,"aborted":`...), *resp.Aborted, 10)
	}
	if resp.Error != "" {
		if b, ok = appendString(append(b, `,"error":`...), resp.Error); !ok {
			return dst, false
		}
	}
	if resp.Code != "" {
		if b, ok = appendString(append(b, `,"code":`...), resp.Code); !ok {
			return dst, false
		}
	}
	if resp.Version != 0 {
		b = strconv.AppendInt(append(b, `,"version":`...), int64(resp.Version), 10)
	}
	return append(b, '}', '\n'), true
}

// appendString quotes s if it is printable ASCII free of the characters
// json.Encoder rewrites (<, >, & under its default HTML escaping).
func appendString(b []byte, s string) ([]byte, bool) {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < ' ' || c > '~' || c == '<' || c == '>' || c == '&':
			return b, false
		default:
			b = append(b, c)
		}
	}
	return append(b, '"'), true
}
