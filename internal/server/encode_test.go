package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"viewjoin"
	"viewjoin/internal/obs"
	"viewjoin/internal/workload"
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
	Stats      refStats    `json:"stats"`
	DurationUS int64       `json:"duration_us"`
	Trace      *obs.Report `json:"trace,omitempty"`
}

// refStats is the response's stats object as it was declared.
type refStats struct {
	ElementsScanned int64 `json:"elements_scanned"`
	Comparisons     int64 `json:"comparisons"`
	PointerDerefs   int64 `json:"pointer_derefs"`
	PagesRead       int64 `json:"pages_read"`
	PagesWritten    int64 `json:"pages_written"`
	JumpsTaken      int64 `json:"jumps_taken"`
	JumpsRefused    int64 `json:"jumps_refused"`
	PeakMemoryBytes int64 `json:"peak_memory_bytes"`
	FirstMatchUS    int64 `json:"first_match_us"`
}

// wireResponse is a /query body as a client decodes it, the stats object
// included.
type wireResponse struct {
	queryResponse
	Stats refStats `json:"stats"`
}

type refCell struct {
	Tag   string `json:"tag"`
	Start int32  `json:"start"`
	End   int32  `json:"end"`
	Level int32  `json:"level"`
}

// refEncode renders r as encoding/json does, cell k of every row tagged
// tags[k].
func refEncode(t testing.TB, r *queryResponse, tags []string) []byte {
	t.Helper()
	ref := refResponse{
		Schema: r.Schema, Document: r.Document, Query: r.Query, Engine: r.Engine, Views: r.Views,
		Cache: r.Cache, MatchCount: r.MatchCount, Cursor: r.Cursor, Trace: r.Trace,
		Stats: refStats{
			ElementsScanned: r.Stats.ElementsScanned, Comparisons: r.Stats.Comparisons,
			PointerDerefs: r.Stats.PointerDerefs, PagesRead: r.Stats.PagesRead,
			PagesWritten: r.Stats.PagesWritten, JumpsTaken: r.Stats.JumpsTaken,
			JumpsRefused: r.Stats.JumpsRefused, PeakMemoryBytes: r.Stats.PeakMemoryBytes,
			FirstMatchUS: r.Stats.FirstMatchNanos / 1000,
		},
		DurationUS: r.Stats.Duration.Microseconds(),
	}
	for _, row := range r.Matches {
		cells := make([]refCell, len(row))
		for k, c := range row {
			cells[k] = refCell{Tag: tags[k], Start: c.Start, End: c.End, Level: c.Level}
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

// setRows gives r n rows of a query whose nodes are tagged tags, with the
// cell prefixes a plan over it carries.
func setRows(r *queryResponse, tags []string, n int) {
	r.Matches = make([][]viewjoin.Node, n)
	for i := range r.Matches {
		row := make([]viewjoin.Node, len(tags))
		for k := range tags {
			row[k] = viewjoin.Node{Start: int32(i*7 + k), End: int32(1<<31 - 1 - i), Level: int32(k - 1)}
		}
		r.Matches[i] = row
	}
	r.cells = cellPrefixes(tags)
}

// catalogueResult is an XMark catalogue query's full ViewJoin result over
// its LEp views, with its column tags and cell prefixes.
type catalogueResult struct {
	tags []string
	open [][]byte
	rows [][]viewjoin.Node
}

// xmarkResults runs every XMark catalogue query (or the named ones) over
// doc.
func xmarkResults(t testing.TB, doc *viewjoin.Document, names ...string) []catalogueResult {
	t.Helper()
	var out []catalogueResult
	for _, wq := range append(workload.XMarkPath(), workload.XMarkTwig()...) {
		if len(names) > 0 && !slices.Contains(names, wq.Name) {
			continue
		}
		views := make([]*viewjoin.Query, len(wq.Views))
		for i, v := range wq.Views {
			views[i] = viewjoin.MustParseQuery(v.String())
		}
		mv, err := doc.MaterializeViews(views, viewjoin.SchemeLEp)
		if err != nil {
			t.Fatalf("%s: %v", wq.Name, err)
		}
		q := viewjoin.MustParseQuery(wq.Pattern.String())
		p, err := viewjoin.Prepare(doc, q, mv, viewjoin.EngineViewJoin, nil)
		if err != nil {
			t.Fatalf("%s: %v", wq.Name, err)
		}
		res, err := p.Run()
		if err != nil {
			t.Fatalf("%s: %v", wq.Name, err)
		}
		out = append(out, catalogueResult{q.Labels(), cellPrefixes(q.Labels()), res.Matches})
	}
	return out
}

// repeatedCells counts the cells equal to the cell above them.
func repeatedCells(rows [][]viewjoin.Node) int {
	n := 0
	for i := 1; i < len(rows); i++ {
		for k, c := range rows[i] {
			if k < len(rows[i-1]) && rows[i-1][k] == c {
				n++
			}
		}
	}
	return n
}

func TestQueryResponseMatchesEncodingJSON(t *testing.T) {
	q14 := xmarkResults(t, viewjoin.GenerateXMark(0.05), "Q14")[0]
	if len(q14.rows) < 10 || repeatedCells(q14.rows) == 0 {
		t.Fatalf("Q14: %d rows, %d cells equal to the one above: no repeated prefix to copy", len(q14.rows), repeatedCells(q14.rows))
	}
	wide := make([]string, copiedColumns+4)
	for k := range wide {
		wide[k] = "c" + itoa(k)
	}
	escapes := []string{`quo"te`, `back\slash`, "<lt&amp>", "héllo-世界", "line\u2028sep\u2029", "ctl\x01\n\t", "bad\xffutf8", ""}
	base := queryResponse{
		responseHead: responseHead{Schema: ResponseSchema, Document: "d<o>c", Query: `//a[//"b"]`, Engine: "VJ",
			Views: []string{"//a", "//b&c"}, Cache: "hit"},
		responseTail: responseTail{Stats: viewjoin.Stats{ElementsScanned: 12, Comparisons: 34, PeakMemoryBytes: 78,
			FirstMatchNanos: 9_999, Partitions: 1, Duration: 56 * time.Microsecond}},
	}
	ab := []string{"a", "b"}
	cases := map[string]struct {
		tags   []string
		rows   int
		mutate func(r *queryResponse)
	}{
		"empty result":     {nil, 0, func(r *queryResponse) {}},
		"count only":       {nil, 0, func(r *queryResponse) { r.MatchCount = 99 }},
		"nil views":        {nil, 0, func(r *queryResponse) { r.Views = nil }},
		"one cell":         {[]string{"a"}, 1, func(r *queryResponse) { r.MatchCount = 1 }},
		"escaped tags":     {escapes, 3, func(r *queryResponse) { r.MatchCount = 3 }},
		"page with cursor": {ab, 20, func(r *queryResponse) { r.MatchCount = 20; r.Cursor = "AAAA-_" }},
		"last page":        {ab, 7, func(r *queryResponse) { r.MatchCount = 7 }},
		"negative numbers": {[]string{"a"}, 1, func(r *queryResponse) {
			r.Matches[0][0] = viewjoin.Node{Start: -1, End: -1 << 31, Level: -3}
		}},
		"trace":             {[]string{"a"}, 2, func(r *queryResponse) { r.Trace = &obs.Report{} }},
		"thousands of rows": {[]string{"site", "item", "name"}, 5000, func(r *queryResponse) { r.MatchCount = 5000 }},
		"repeated prefixes, XMark Q14": {q14.tags, 0, func(r *queryResponse) {
			r.Matches, r.cells, r.MatchCount = q14.rows, q14.open, len(q14.rows)
		}},
		"cells equal to the one above but in end or level": {ab, 6, func(r *queryResponse) {
			r.MatchCount = 6
			for i := 1; i < len(r.Matches); i++ {
				r.Matches[i][0] = r.Matches[i-1][0]
				r.Matches[i][0].End += int32(i % 2)
				r.Matches[i][1] = r.Matches[i-1][1]
				r.Matches[i][1].Level += int32(i % 3)
			}
		}},
		"rows wider than the copied columns": {wide, 9, func(r *queryResponse) {
			r.MatchCount = 9
			for i := 1; i < len(r.Matches); i++ {
				for k := range wide {
					if (i+k)%3 != 0 {
						r.Matches[i][k] = r.Matches[i-1][k]
					}
				}
			}
		}},
	}
	for name, c := range cases {
		r := base
		if c.rows > 0 {
			setRows(&r, c.tags, c.rows)
		}
		c.mutate(&r)
		if got, want := writeBody(t, &r), refEncode(t, &r, c.tags); !bytes.Equal(got, want) {
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
// encoding/json renders for its decoded content, every cell tagged with its
// query node's label.
func TestQueryBodiesRoundTrip(t *testing.T) {
	tags := viewjoin.MustParseQuery(testQuery).Labels()
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
		var ref refResponse
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, row := range ref.Matches {
			for k, c := range row {
				if c.Tag != tags[k] {
					t.Fatalf("%s: column %d tagged %q, want %q", name, k, c.Tag, tags[k])
				}
			}
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(ref); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Errorf("%s:\n got %s\nwant %s", name, clip(body), clip(want.Bytes()))
		}
		var r queryResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatalf("%s: %v", name, err)
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
// hand-rolled body equals encoding/json's. Bit (3i+k)%64 of repeat makes
// row i's cell k a copy of the cell above it.
func FuzzQueryResponseEncoding(f *testing.F) {
	f.Add("a", "b", "doc", "//a//b", "cur", 3, int32(1), int32(2), int32(3), uint64(0))
	f.Add(`q"`, `b\`, "<d>", "//a[&]", "", 0, int32(-1), int32(0), int32(1<<31-1), uint64(0))
	f.Add("é\u2028", "\xff\x00", "\u2029", "\t\n", "-_", 40, int32(-1<<31), int32(7), int32(-7), uint64(0))
	f.Add("a", "b", "doc", "//a//b", "", 50, int32(9), int32(99), int32(-1), uint64(0x9249249249249249))
	f.Add("x\"", "<y>", "doc", "//x//y", "c", 70, int32(1<<31-1), int32(-5), int32(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, tagA, tagB, doc, query, cursor string, n int, start, end, level int32, repeat uint64) {
		if n < 0 || n > 200 {
			n = 200
		}
		r := queryResponse{
			responseHead: responseHead{Schema: ResponseSchema, Document: doc, Query: query, Engine: tagB,
				Views: []string{tagA, query}, Cache: cursor, MatchCount: n},
			responseTail: responseTail{Cursor: cursor, Stats: viewjoin.Stats{Comparisons: int64(start) * int64(end),
				FirstMatchNanos: int64(end), Partitions: n, Duration: time.Duration(level) * time.Microsecond}},
		}
		tags := []string{tagA, tagB, tagA + tagB}
		setRows(&r, tags, n)
		for i, row := range r.Matches {
			row[i%3] = viewjoin.Node{Start: start + int32(i), End: end - int32(i), Level: level}
		}
		for i := 1; i < n; i++ {
			for k := range tags {
				if repeat>>((3*i+k)%64)&1 != 0 {
					r.Matches[i][k] = r.Matches[i-1][k]
				}
			}
		}
		if got, want := writeBody(t, &r), refEncode(t, &r, tags); !bytes.Equal(got, want) {
			t.Fatalf("\n got %s\nwant %s", clip(got), clip(want))
		}
		if got, bound := len(appendMatches(nil, r.cells, r.Matches)), matchesSize(r.cells, n); got > bound {
			t.Fatalf("rows take %d bytes, matchesSize says at most %d", got, bound)
		}
	})
}

// TestAppendMatchesSizesOnce: a full result grows an empty buffer once (the
// rows slice aside, nothing else), and one already large enough not at all.
func TestAppendMatchesSizesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var r queryResponse
	setRows(&r, []string{"site", "item", "name"}, 5000)
	if n := testing.AllocsPerRun(20, func() { appendMatches(nil, r.cells, r.Matches) }); n > 2 {
		t.Errorf("appendMatches into a nil buffer: %.1f allocations, want at most 2", n)
	}
	buf := make([]byte, 0, matchesSize(r.cells, len(r.Matches)))
	if n := testing.AllocsPerRun(20, func() { appendMatches(buf, r.cells, r.Matches) }); n != 0 {
		t.Errorf("appendMatches into a buffer of matchesSize: %.1f allocations, want 0", n)
	}
	widest := viewjoin.Node{Start: -1 << 31, End: -1 << 31, Level: -1 << 31}
	for _, row := range r.Matches {
		for k := range row {
			row[k] = widest
		}
	}
	if got, bound := len(appendMatches(nil, r.cells, r.Matches)), matchesSize(r.cells, len(r.Matches)); got > bound {
		t.Errorf("rows of the widest cells take %d bytes, matchesSize says at most %d", got, bound)
	}
}

// BenchmarkAppendMatches encodes the rows of every XMark catalogue query's
// full result (ViewJoin over LEp, scale 0.25) per iteration, into one
// reused buffer: the encoder alone, in ns per result row.
func BenchmarkAppendMatches(b *testing.B) {
	results := xmarkResults(b, viewjoin.GenerateXMark(0.25))
	rows := 0
	for _, c := range results {
		rows += len(c.rows)
	}
	var buf []byte
	b.ResetTimer()
	for b.Loop() {
		for _, c := range results {
			buf = appendMatches(buf[:0], c.open, c.rows)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/match")
}
