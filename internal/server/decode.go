package server

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"strconv"
)

// maxBodyBytes bounds what a request body is read for: bytes past it are
// never seen, so an object running past it fails as truncated.
const maxBodyBytes = 1 << 20

// decodeStrict decodes a JSON request body of at most maxBodyBytes into v,
// refusing fields v does not name: a stale or misspelled field fails the
// request instead of being silently dropped.
func decodeStrict(body io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(body, maxBodyBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// decodeQueryRequest decodes a /query or /debug/trace body into req, with
// exactly decodeStrict's answers, but without reflection for the shape
// clients send. The body is read into a pooled buffer, and after each read
// scanQueryRequest looks at what has come: a complete canonical object is
// the request, and the body is not read again, as json.Decoder does not
// read past a complete value either; a canonical prefix waits for the next
// read. Any other bytes go to decodeStrict, which reads the bytes already
// read and then the rest of the body (1 MiB in all, as before), so errors,
// case-folded keys, null, duplicate keys, escapes and trailing bytes are
// encoding/json's, met after the same reads.
func decodeQueryRequest(body io.Reader, req *queryRequest) error {
	bp := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(bp)
	b, rest := (*bp)[:0], body
	for scans := 0; scans < maxScans; {
		b = slices.Grow(b, 512)
		n, err := body.Read(b[len(b):min(cap(b), maxBodyBytes)])
		b = b[:len(b)+n]
		*bp = b
		if n > 0 {
			scans++
			switch scanQueryRequest(b, req) {
			case scanDone:
				return nil
			case scanNo:
				scans = maxScans
			}
		}
		if err == io.EOF || len(b) == maxBodyBytes {
			rest = nil
			break
		}
		if err != nil {
			rest = errReader{err} // met where the decoder met it before
			break
		}
	}
	*req = queryRequest{}
	var r io.Reader = bytes.NewReader(b)
	if rest != nil {
		r = io.MultiReader(r, rest)
	}
	return decodeStrict(r, req)
}

// maxScans bounds how many reads of one body are scanned: a client that
// trickles a long body in small pieces costs a rescan per piece, so after
// maxScans of them the body goes to decodeStrict, which reads on linearly.
const maxScans = 8

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// What scanQueryRequest makes of a body's first bytes.
const (
	scanNo   = iota // not a canonical request, however it goes on
	scanMore        // a canonical request so far, cut short
	scanDone        // a complete canonical request
)

// scanQueryRequest decodes b into req if it opens with a request in the
// canonical shape, and reports whether it did, might with more bytes, or
// cannot:
//
//   - one object, with whitespace only around its tokens;
//   - keys spelled exactly as queryRequest's json tags, each at most once;
//   - string values (and views' elements) of printable ASCII without
//     escapes, so the bytes between the quotes are the string;
//   - integer values without fraction, exponent or leading zeros that fit
//     their field.
//
// Every such object means to encoding/json what it means here, and what
// follows it is not looked at. Unless scanDone, req holds a partial decode
// and the caller starts over.
func scanQueryRequest(b []byte, req *queryRequest) int {
	s := scanner{b: b}
	if s.object(req) {
		return scanDone
	}
	if s.short {
		return scanMore
	}
	return scanNo
}

// object consumes a canonical request object into req.
func (s *scanner) object(req *queryRequest) bool {
	if !s.skip('{') {
		return false
	}
	var seen uint8
	if s.skip('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.skip(':') {
			return false
		}
		var bit uint8
		switch string(key) {
		case "document":
			bit = 1 << 0
			req.Document, ok = s.strValue()
		case "query":
			bit = 1 << 1
			req.Query, ok = s.strValue()
		case "engine":
			bit = 1 << 2
			req.Engine, ok = s.strValue()
		case "views":
			bit = 1 << 3
			req.Views, ok = s.strs()
		case "timeout_ms":
			bit = 1 << 4
			req.TimeoutMS, ok = s.int(64)
		case "limit":
			bit = 1 << 5
			var v int64
			v, ok = s.int(strconv.IntSize)
			req.Limit = int(v)
		case "cursor":
			bit = 1 << 6
			req.Cursor, ok = s.strValue()
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if s.skip('}') {
			return true
		}
		if !s.skip(',') {
			return false
		}
	}
}

// scanner walks a request body for scanQueryRequest. Every method skips
// the whitespace before its token, and one that runs out of bytes before
// its token is whole sets short.
type scanner struct {
	b     []byte
	i     int
	short bool
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// skip consumes c if it is the next token.
func (s *scanner) skip(c byte) bool {
	s.ws()
	if s.i == len(s.b) {
		s.short = true
		return false
	}
	if s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str consumes a string token of printable ASCII without escapes and
// returns its bytes, which alias the body.
func (s *scanner) str() ([]byte, bool) {
	if !s.skip('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i:j]
			s.i = j + 1
			return v, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	s.short = true
	return nil, false
}

// strValue is str as a string of its own, for a field.
func (s *scanner) strValue() (string, bool) {
	v, ok := s.str()
	return string(v), ok
}

// strs consumes an array of strings. An empty array is an empty, non-nil
// slice, as encoding/json leaves it; room for four is one allocation.
func (s *scanner) strs() ([]string, bool) {
	if !s.skip('[') {
		return nil, false
	}
	out := make([]string, 0, 4)
	if s.skip(']') {
		return out, true
	}
	for {
		v, ok := s.strValue()
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if s.skip(']') {
			return out, true
		}
		if !s.skip(',') {
			return nil, false
		}
	}
}

// int consumes an integer token that fits a signed integer of bits bits.
func (s *scanner) int(bits int) (int64, bool) {
	s.ws()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	var v int64
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		v = v*10 + int64(s.b[s.i]-'0')
		s.i++
	}
	n := s.i - start
	if n > 18 || n > 1 && s.b[start] == '0' {
		return 0, false // possibly too wide, or a leading zero
	}
	if s.i == len(s.b) {
		s.short = true // more digits, a fraction or an exponent may follow
		return 0, false
	}
	if n == 0 {
		return 0, false
	}
	if neg {
		v = -v
	}
	if bits < 64 && v != v<<(64-bits)>>(64-bits) {
		return 0, false
	}
	return v, true
}
