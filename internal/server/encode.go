package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"viewjoin"
	"viewjoin/internal/obs"
)

// queryResponse is the body of a successful POST /query, in wire order:
// head, then matches, then tail. It is written by write, not by
// encoding/json (reflection over megabytes of rows would be most of a
// full-result request); splicing the rows between two small marshalled
// envelopes is what keeps the field order.
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

// bodyPool recycles response buffers across requests, so a steady stream of
// large results appends into already-grown storage.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// write renders the response — byte for byte what json.Encoder produced for
// the same fields — into a pooled buffer and hands it to w in one Write
// (response writers that buffer grow once, not per fragment).
func (r *queryResponse) write(w http.ResponseWriter) {
	head, err := json.Marshal(r.responseHead)
	var tail []byte
	if err == nil {
		tail, err = json.Marshal(r.responseTail)
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode", err, false)
		return
	}
	bp := bodyPool.Get().(*[]byte)
	b := append((*bp)[:0], head[:len(head)-1]...)
	if len(r.Matches) > 0 {
		b = appendMatches(append(b, `,"matches":`...), r.cells, r.Matches)
	}
	b = append(append(append(b, ','), tail[1:]...), '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Write(b) // a failed write means the client is gone; nothing to report to
	*bp = b
	bodyPool.Put(bp)
}

// cellPrefixes renders, once per plan, what opens each column's cells:
// {"tag":<the query node's label, JSON-escaped>,"start":
func cellPrefixes(labels []string) [][]byte {
	open := make([][]byte, len(labels))
	for k, l := range labels {
		tag, _ := json.Marshal(l) // a string always marshals
		open[k] = append(append([]byte(`{"tag":`), tag...), `,"start":`...)
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
