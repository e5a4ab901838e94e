package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"viewjoin"
	"viewjoin/internal/obs"
)

// refResponse is the /query body as it was declared when encoding/json
// rendered it: one struct in wire order, rows copied into tagged cells. The
// hand-rolled writer must reproduce json.Encoder's output for it byte for
// byte.
type refResponse struct {
	Schema     string      `json:"schema"`
	Document   string      `json:"document"`
	Query      string      `json:"query"`
	Engine     string      `json:"engine"`
	Views      []string    `json:"views"`
	Cache      string      `json:"cache"`
	MatchCount int         `json:"match_count"`
	Matches    [][]refCell `json:"matches,omitempty"`
	Cursor     string      `json:"cursor,omitempty"`
	Stats      statsJSON   `json:"stats"`
	DurationUS int64       `json:"duration_us"`
	Trace      *obs.Report `json:"trace,omitempty"`
}

type refCell struct {
	Tag   string `json:"tag"`
	Start int32  `json:"start"`
	End   int32  `json:"end"`
	Level int32  `json:"level"`
}

func refEncode(t testing.TB, r *queryResponse) []byte {
	t.Helper()
	ref := refResponse{
		Schema: r.Schema, Document: r.Document, Query: r.Query, Engine: r.Engine, Views: r.Views,
		Cache: r.Cache, MatchCount: r.MatchCount, Cursor: r.Cursor, Stats: r.Stats,
		DurationUS: r.DurationUS, Trace: r.Trace,
	}
	for _, row := range r.Matches {
		cells := make([]refCell, len(row))
		for k, c := range row {
			cells[k] = refCell{Tag: c.Tag, Start: c.Start, End: c.End, Level: c.Level}
		}
		ref.Matches = append(ref.Matches, cells)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(ref); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// countingWriter records how the handler hands the body over.
type countingWriter struct {
	httptest.ResponseRecorder
	writes int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	w.writes++
	return w.ResponseRecorder.Write(b)
}

func writeBody(t testing.TB, r *queryResponse) []byte {
	t.Helper()
	w := &countingWriter{ResponseRecorder: *httptest.NewRecorder()}
	r.write(w)
	if w.writes != 1 {
		t.Fatalf("body handed over in %d writes, want 1", w.writes)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	return w.Body.Bytes()
}

// rowsOf builds a result the way the engines do: every row carries the
// query's tags, column by column.
func rowsOf(tags []string, n int) [][]viewjoin.Node {
	rows := make([][]viewjoin.Node, n)
	for i := range rows {
		row := make([]viewjoin.Node, len(tags))
		for k, tag := range tags {
			row[k] = viewjoin.Node{Tag: tag, Start: int32(i*7 + k), End: int32(1<<31 - 1 - i), Level: int32(k - 1)}
		}
		rows[i] = row
	}
	return rows
}

func TestQueryResponseMatchesEncodingJSON(t *testing.T) {
	escapes := []string{`quo"te`, `back\slash`, "<lt&amp>", "héllo-世界", "line\u2028sep\u2029", "ctl\x01\n\t", "bad\xffutf8", ""}
	base := queryResponse{
		responseHead: responseHead{Schema: ResponseSchema, Document: "d<o>c", Query: `//a[//"b"]`, Engine: "VJ",
			Views: []string{"//a", "//b&c"}, Cache: "hit"},
		responseTail: responseTail{Stats: statsJSON{ElementsScanned: 12, Comparisons: 34, Partitions: 1}, DurationUS: 56},
	}
	cases := map[string]func(r *queryResponse){
		"empty result": func(r *queryResponse) {},
		"count only":   func(r *queryResponse) { r.MatchCount = 99 },
		"nil views":    func(r *queryResponse) { r.Views = nil },
		"one cell":     func(r *queryResponse) { r.Matches = rowsOf([]string{"a"}, 1); r.MatchCount = 1 },
		"escaped tags": func(r *queryResponse) { r.Matches = rowsOf(escapes, 3); r.MatchCount = 3 },
		"page with cursor": func(r *queryResponse) {
			r.Matches = rowsOf([]string{"a", "b"}, 20)
			r.MatchCount = 20
			r.Cursor = "AAAA-_"
		},
		"last page": func(r *queryResponse) { r.Matches = rowsOf([]string{"a", "b"}, 7); r.MatchCount = 7 },
		"negative numbers": func(r *queryResponse) {
			r.Matches = [][]viewjoin.Node{{{Tag: "a", Start: -1, End: -1 << 31, Level: -3}}}
		},
		"trace": func(r *queryResponse) { r.Trace = &obs.Report{}; r.Matches = rowsOf([]string{"a"}, 2) },
		"thousands of rows": func(r *queryResponse) {
			r.Matches = rowsOf([]string{"site", "item", "name"}, 5000)
			r.MatchCount = 5000
		},
	}
	for name, mutate := range cases {
		r := base
		mutate(&r)
		if got, want := writeBody(t, &r), refEncode(t, &r); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", name, clip(got), clip(want))
		}
	}
}

func clip(b []byte) []byte {
	if len(b) > 600 {
		return append(b[:600:600], "…"...)
	}
	return b
}

// TestQueryBodiesRoundTrip drives the real handler — full result, a limit
// shorter than the result (cursor present), the short last page (cursor
// absent), an empty page — and checks each body is exactly what
// encoding/json renders for its decoded content.
func TestQueryBodiesRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	do := func(body string) []byte {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", bytes.NewBufferString(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, w.Code, w.Body)
		}
		return w.Body.Bytes()
	}
	check := func(name string, body []byte) queryResponse {
		t.Helper()
		var r queryResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := refEncode(t, &r); !bytes.Equal(body, want) {
			t.Errorf("%s:\n got %s\nwant %s", name, clip(body), clip(want))
		}
		return r
	}
	q := `"document":"xmark","query":"` + testQuery + `"`
	full := check("count only", do(`{`+q+`}`))
	if full.MatchCount < 10 || len(full.Matches) != 0 {
		t.Fatalf("count-only run: %d matches, %d rows", full.MatchCount, len(full.Matches))
	}
	all := check("oversized limit", do(`{`+q+`,"limit":100000}`))
	if len(all.Matches) != full.MatchCount || all.Cursor != "" {
		t.Fatalf("oversized limit: %d rows of %d, cursor %q", len(all.Matches), full.MatchCount, all.Cursor)
	}
	limit := full.MatchCount - 3
	page := check("limit shorter than the result", do(`{`+q+`,"limit":`+itoa(limit)+`}`))
	if len(page.Matches) != limit || page.Cursor == "" {
		t.Fatalf("first page: %d rows, cursor %q", len(page.Matches), page.Cursor)
	}
	last := check("last page", do(`{`+q+`,"limit":`+itoa(limit)+`,"cursor":"`+page.Cursor+`"}`))
	if len(last.Matches) != 3 || last.Cursor != "" {
		t.Fatalf("last page: %d rows, cursor %q", len(last.Matches), last.Cursor)
	}
	tail := all.Matches[len(all.Matches)-1]
	after := check("empty page", do(`{`+q+`,"limit":5,"cursor":"`+encodeCursor(0, tail)+`"}`))
	if len(after.Matches) != 0 || after.MatchCount != 0 {
		t.Fatalf("page after the last row: %d rows", len(after.Matches))
	}
}

func itoa(n int) string { b, _ := json.Marshal(n); return string(b) }

// FuzzQueryResponseEncoding: whatever the strings and numbers, the
// hand-rolled body equals encoding/json's.
func FuzzQueryResponseEncoding(f *testing.F) {
	f.Add("a", "b", "doc", "//a//b", "cur", 3, int32(1), int32(2), int32(3))
	f.Add(`q"`, `b\`, "<d>", "//a[&]", "", 0, int32(-1), int32(0), int32(1<<31-1))
	f.Add("é\u2028", "\xff\x00", "\u2029", "\t\n", "-_", 40, int32(-1<<31), int32(7), int32(-7))
	f.Fuzz(func(t *testing.T, tagA, tagB, doc, query, cursor string, n int, start, end, level int32) {
		if n < 0 || n > 200 {
			n = 200
		}
		r := queryResponse{
			responseHead: responseHead{Schema: ResponseSchema, Document: doc, Query: query, Engine: tagB,
				Views: []string{tagA, query}, Cache: cursor, MatchCount: n},
			responseTail: responseTail{Cursor: cursor, Stats: statsJSON{Comparisons: int64(start) * int64(end), Partitions: n},
				DurationUS: int64(level)},
		}
		r.Matches = rowsOf([]string{tagA, tagB, tagA + tagB}, n)
		for i, row := range r.Matches {
			row[i%3] = viewjoin.Node{Tag: row[i%3].Tag, Start: start + int32(i), End: end - int32(i), Level: level}
		}
		if got, want := writeBody(t, &r), refEncode(t, &r); !bytes.Equal(got, want) {
			t.Fatalf("\n got %s\nwant %s", clip(got), clip(want))
		}
	})
}
