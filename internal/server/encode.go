package server

import (
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"viewjoin"
	"viewjoin/internal/obs"
)

// queryResponse is the body of a successful POST /query, in wire order:
// head, then matches, then tail. It is written by write, not by
// encoding/json: reflection over megabytes of rows would be most of a
// full-result request, and over the two small envelopes most of a page's
// encoding. The json tags document the wire and let tests decode it.
type queryResponse struct {
	responseHead
	// Matches is the page of result rows, straight from Result.Matches;
	// absent when empty. Each cell is {"tag","start","end","level"}: its
	// tag is its column's, from cells.
	Matches [][]viewjoin.Node `json:"matches,omitempty"`
	responseTail
	cells [][]byte // the plan's cellPrefixes
}

type responseHead struct {
	Schema     string   `json:"schema"`
	Document   string   `json:"document"`
	Query      string   `json:"query"`
	Engine     string   `json:"engine"`
	Views      []string `json:"views"`
	Cache      string   `json:"cache"` // "hit" or "miss"
	MatchCount int      `json:"match_count"`
}

type responseTail struct {
	// Cursor, present when a limited page filled completely, resumes the
	// enumeration strictly after this page's last row: pass it back in the
	// next request's cursor field. Absent on the last page. The value is
	// opaque (the document position of the last emitted match), so
	// resumption seeks rather than re-enumerates.
	Cursor string `json:"cursor,omitempty"`
	// Stats is the run's: appendTail writes its counters as the "stats"
	// object and its Duration as "duration_us".
	Stats viewjoin.Stats `json:"-"`
	Trace *obs.Report    `json:"trace,omitempty"`
}

// bodyPool recycles request and response buffers across requests, so a
// steady stream of large results appends into already-grown storage.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// write renders the response — byte for byte what json.Encoder produced for
// the same fields — into a pooled buffer and hands it to w in one Write
// (response writers that buffer grow once, not per fragment). The buffer
// is sized for the whole body before the first byte goes in, so a full
// result that finds no pooled buffer large enough allocates it once
// instead of re-copying through append's doublings. Only the trace,
// present on /debug/trace alone, goes through encoding/json.
func (r *queryResponse) write(w http.ResponseWriter) {
	var trace []byte
	if r.Trace != nil {
		var err error
		if trace, err = json.Marshal(r.Trace); err != nil {
			writeError(w, http.StatusInternalServerError, "encode", err, false)
			return
		}
	}
	bp := bodyPool.Get().(*[]byte)
	b := slices.Grow((*bp)[:0], r.sizeHint()+len(trace))
	b = r.appendHead(b)
	if len(r.Matches) > 0 {
		b = appendMatches(append(b, `,"matches":`...), r.cells, r.Matches)
	}
	b = r.appendTail(b)
	if trace != nil {
		b = append(append(b, `,"trace":`...), trace...)
	}
	b = append(b, '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Write(b) // a failed write means the client is gone; nothing to report to
	*bp = b
	bodyPool.Put(bp)
}

// envelopeSize is room for the body's keys, the statistics and the
// punctuation around the strings, escapes aside.
const envelopeSize = 512

// sizeHint is what the body takes but the trace: room for the rows at
// their widest (matchesSize) and for the strings as written when none
// needs escaping.
func (r *queryResponse) sizeHint() int {
	n := envelopeSize + len(r.Schema) + len(r.Document) + len(r.Query) + len(r.Engine) + len(r.Cache) + len(r.Cursor)
	for _, v := range r.Views {
		n += len(v) + 3
	}
	return n + matchesSize(r.cells, len(r.Matches))
}

// appendHead appends the object's opening and responseHead's fields.
func (h *responseHead) appendHead(b []byte) []byte {
	b = appendString(append(b, `{"schema":`...), h.Schema)
	b = appendString(append(b, `,"document":`...), h.Document)
	b = appendString(append(b, `,"query":`...), h.Query)
	b = appendString(append(b, `,"engine":`...), h.Engine)
	b = append(b, `,"views":`...)
	if h.Views == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range h.Views {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, v)
		}
		b = append(b, ']')
	}
	b = appendString(append(b, `,"cache":`...), h.Cache)
	return strconv.AppendInt(append(b, `,"match_count":`...), int64(h.MatchCount), 10)
}

// appendTail appends responseTail's fields but the trace, each after a
// comma: the stats object and duration_us straight from the run's Stats.
func (t *responseTail) appendTail(b []byte) []byte {
	if t.Cursor != "" {
		b = appendString(append(b, `,"cursor":`...), t.Cursor)
	}
	s := &t.Stats
	b = strconv.AppendInt(append(b, `,"stats":{"elements_scanned":`...), s.ElementsScanned, 10)
	b = strconv.AppendInt(append(b, `,"comparisons":`...), s.Comparisons, 10)
	b = strconv.AppendInt(append(b, `,"pointer_derefs":`...), s.PointerDerefs, 10)
	b = strconv.AppendInt(append(b, `,"pages_read":`...), s.PagesRead, 10)
	b = strconv.AppendInt(append(b, `,"pages_written":`...), s.PagesWritten, 10)
	b = strconv.AppendInt(append(b, `,"jumps_taken":`...), s.JumpsTaken, 10)
	b = strconv.AppendInt(append(b, `,"jumps_refused":`...), s.JumpsRefused, 10)
	b = strconv.AppendInt(append(b, `,"peak_memory_bytes":`...), s.PeakMemoryBytes, 10)
	b = strconv.AppendInt(append(b, `,"first_match_us":`...), s.FirstMatchNanos/1000, 10)
	return strconv.AppendInt(append(b, `},"duration_us":`...), s.Duration.Microseconds(), 10)
}

// cellPrefixes renders, once per plan, what opens each column's cells:
// {"tag":<the query node's label, JSON-escaped>,"start":
func cellPrefixes(labels []string) [][]byte {
	open := make([][]byte, len(labels))
	for k, l := range labels {
		open[k] = append(appendString([]byte(`{"tag":`), l), `,"start":`...)
	}
	return open
}

// Each cell is its column's prefix, then these keys between its numbers,
// each number at most maxInt32Len bytes.
const (
	endKey      = `,"end":`
	levelKey    = `,"level":`
	maxInt32Len = len("-2147483648")
)

// matchesSize bounds the bytes appendMatches writes for rows rows of at
// most len(open) cells: brackets and commas, and each cell at its widest.
func matchesSize(open [][]byte, rows int) int {
	row := 3 // [ ] and the comma before the next row
	for _, o := range open {
		row += len(o) + len(endKey) + len(levelKey) + 3*maxInt32Len + 2 // } and ,
	}
	return 2 + rows*row
}

// copiedColumns is how many leading columns appendMatches remembers the
// last written cell of; cells of columns past it are always formatted.
const copiedColumns = 16

// appendMatches appends the rows of one query's result as
// [[{"tag":…,"start":…,"end":…,"level":…},…],…], opening cell k of every
// row with open[k]. A cell equal to the one above it (the same node bound
// by consecutive rows, as twig ancestors are) is written as a copy of
// that cell's bytes rather than formatted again. b grows once, to
// matchesSize.
func appendMatches(b []byte, open [][]byte, rows [][]viewjoin.Node) []byte {
	b = slices.Grow(b, matchesSize(open, len(rows)))
	var last [copiedColumns]struct{ at, end int } // column k's latest cell in b
	var prev []viewjoin.Node
	b = append(b, '[')
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for k, c := range row {
			if k > 0 {
				b = append(b, ',')
			}
			if k >= copiedColumns {
				b = appendCell(b, open[k], c)
				continue
			}
			if k < len(prev) && prev[k] == c {
				b = append(b, b[last[k].at:last[k].end]...)
				continue
			}
			at := len(b)
			b = appendCell(b, open[k], c)
			last[k].at, last[k].end = at, len(b)
		}
		b = append(b, ']')
		prev = row
	}
	return append(b, ']')
}

// appendCell appends {"tag":…,"start":…,"end":…,"level":…}, open being
// its column's prefix up to the start's value.
func appendCell(b, open []byte, c viewjoin.Node) []byte {
	b = appendInt32(append(b, open...), c.Start)
	b = appendInt32(append(b, endKey...), c.End)
	b = appendInt32(append(b, levelKey...), c.Level)
	return append(b, '}')
}

// digitPairs holds "00" through "99": the two digits of n at 2n.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendInt32 appends v in decimal as strconv.AppendInt does. A
// non-negative v's digits are written in place, two per division, from
// the last pair back; a negative one (never a document position) goes
// through strconv.
func appendInt32(b []byte, v int32) []byte {
	if v < 0 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	u := uint32(v)
	n := decimalLen(u)
	b = slices.Grow(b, n)
	i := len(b) + n
	b = b[:i]
	for u >= 100 {
		q := u / 100
		d := (u - q*100) * 2
		i -= 2
		b[i], b[i+1] = digitPairs[d], digitPairs[d+1]
		u = q
	}
	if u >= 10 {
		b[i-2], b[i-1] = digitPairs[u*2], digitPairs[u*2+1]
	} else {
		b[i-1] = byte('0' + u)
	}
	return b
}

// decimalLen is the number of decimal digits of u.
func decimalLen(u uint32) int {
	n := 1
	for ; u >= 10000; u /= 10000 {
		n += 4
	}
	switch {
	case u >= 1000:
		return n + 3
	case u >= 100:
		return n + 2
	case u >= 10:
		return n + 1
	}
	return n
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string exactly as encoding/json writes
// it with HTML escaping on (json.Marshal, and json.Encoder by default):
// ", \ and the C0 controls escaped (\b \f \n \r \t by name), <, > and &
// as \u003c \u003e \u0026, U+2028 and U+2029 as \u2028 \u2029, and
// each byte of invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
