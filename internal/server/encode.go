package server

import (
	"encoding/json"
	"net/http"
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
	Cursor     string      `json:"cursor,omitempty"`
	Stats      statsJSON   `json:"stats"`
	DurationUS int64       `json:"duration_us"`
	Trace      *obs.Report `json:"trace,omitempty"`
}

// bodyPool recycles request and response buffers across requests, so a
// steady stream of large results appends into already-grown storage.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// write renders the response — byte for byte what json.Encoder produced for
// the same fields — into a pooled buffer and hands it to w in one Write
// (response writers that buffer grow once, not per fragment). Only the
// trace, present on /debug/trace alone, goes through encoding/json.
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
	b := r.appendHead((*bp)[:0])
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

// appendTail appends responseTail's fields but the trace, each after a comma.
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
	b = strconv.AppendInt(append(b, `,"first_match_us":`...), s.FirstMatchUS, 10)
	b = strconv.AppendInt(append(b, `,"partitions":`...), int64(s.Partitions), 10)
	return strconv.AppendInt(append(b, `},"duration_us":`...), t.DurationUS, 10)
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

// appendMatches appends the rows of one query's result as
// [[{"tag":…,"start":…,"end":…,"level":…},…],…], opening cell k of every
// row with open[k].
func appendMatches(b []byte, open [][]byte, rows [][]viewjoin.Node) []byte {
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
			b = strconv.AppendInt(append(b, open[k]...), int64(c.Start), 10)
			b = strconv.AppendInt(append(b, `,"end":`...), int64(c.End), 10)
			b = strconv.AppendInt(append(b, `,"level":`...), int64(c.Level), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, ']')
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
