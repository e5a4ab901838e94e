package viewjoin_test

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"sort"
	"testing"

	"viewjoin"
	"viewjoin/internal/tpq"
	"viewjoin/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/counters_golden.json from this build's counters")

const countersGoldenPath = "testdata/counters_golden.json"

// goldenRow is the deterministic cost of one catalogue query under one
// engine, scheme, pool size and partitioning. Nothing in it depends on the
// machine, so the file pins the cost model across rewrites of the code
// that implements it.
type goldenRow struct {
	Key          string `json:"key"`
	Scanned      int64  `json:"scanned"`
	Comparisons  int64  `json:"comparisons"`
	Derefs       int64  `json:"derefs"`
	PagesRead    int64  `json:"pagesRead"`
	PageHits     int64  `json:"pageHits"`
	PagesWritten int64  `json:"pagesWritten"`
	JumpsTaken   int64  `json:"jumpsTaken"`
	JumpsRefused int64  `json:"jumpsRefused"`
	Matches      int    `json:"matches"`
}

// goldenRows evaluates every catalogue query of internal/workload — the 22
// named queries and the eight Table III interleaving cases — under each
// engine/scheme pair at XMark 0.25 / Nasa 1000, with the default pool and
// with caching off, whole-document and as a three-way partitioned run.
func goldenRows(t *testing.T) []goldenRow {
	t.Helper()
	type query struct {
		name    string
		pattern *tpq.Pattern
		views   []*tpq.Pattern
	}
	var queries []query
	for _, wq := range workload.All() {
		queries = append(queries, query{wq.Name, wq.Pattern, wq.Views})
	}
	for _, c := range workload.TableIII() {
		queries = append(queries, query{c.Name, c.Query, c.Views})
	}
	sort.Slice(queries, func(i, j int) bool { return queries[i].name < queries[j].name })

	combos := []struct {
		name     string
		engine   viewjoin.Engine
		scheme   viewjoin.StorageScheme
		pathOnly bool
	}{
		{"VJ+LEp", viewjoin.EngineViewJoin, viewjoin.SchemeLEp, false},
		{"VJ+LE", viewjoin.EngineViewJoin, viewjoin.SchemeLE, false},
		{"VJ+E", viewjoin.EngineViewJoin, viewjoin.SchemeElement, false},
		{"TS+E", viewjoin.EngineTwigStack, viewjoin.SchemeElement, false},
		{"TS+LEp", viewjoin.EngineTwigStack, viewjoin.SchemeLEp, false},
		{"PS+E", viewjoin.EnginePathStack, viewjoin.SchemeElement, true},
	}
	xmark, nasa := viewjoin.GenerateXMark(0.25), viewjoin.GenerateNasa(1000)

	var rows []goldenRow
	for _, wq := range queries {
		doc := nasa
		if wq.name[0] == 'Q' {
			doc = xmark
		}
		q := viewjoin.MustParseQuery(wq.pattern.String())
		vs := make([]*viewjoin.Query, len(wq.views))
		for i, p := range wq.views {
			vs[i] = viewjoin.MustParseQuery(p.String())
		}
		mats := map[viewjoin.StorageScheme][]*viewjoin.MaterializedView{}
		for _, c := range combos {
			if c.pathOnly && !q.IsPath() {
				continue
			}
			mv := mats[c.scheme]
			if mv == nil {
				var err error
				if mv, err = doc.MaterializeViews(vs, c.scheme); err != nil {
					t.Fatalf("%s %s: %v", wq.name, c.name, err)
				}
				mats[c.scheme] = mv
			}
			for _, pool := range []struct {
				name  string
				pages int
			}{{"pool=default", 0}, {"pool=off", -1}} {
				p, err := viewjoin.Prepare(doc, q, mv, c.engine, &viewjoin.EvalOptions{BufferPoolPages: pool.pages})
				if err != nil {
					t.Fatalf("%s %s: %v", wq.name, c.name, err)
				}
				for _, mode := range []string{"whole", "parallel=3"} {
					var res *viewjoin.Result
					if mode == "whole" {
						res, err = p.Run()
					} else {
						res, err = p.RunWith(context.Background(), &viewjoin.RunOptions{Parallelism: 3})
					}
					if err != nil {
						t.Fatalf("%s %s %s %s: %v", wq.name, c.name, pool.name, mode, err)
					}
					rows = append(rows, goldenRowOf(wq.name+"/"+c.name+"/"+pool.name+"/"+mode, res))
				}
			}
		}
	}
	return rows
}

// goldenRowOf is the row a materialized run's Result pins under key.
func goldenRowOf(key string, res *viewjoin.Result) goldenRow {
	s := res.Stats
	return goldenRow{
		Key:     key,
		Scanned: s.ElementsScanned, Comparisons: s.Comparisons, Derefs: s.PointerDerefs,
		PagesRead: s.PagesRead, PageHits: s.PageHits, PagesWritten: s.PagesWritten,
		JumpsTaken: s.JumpsTaken, JumpsRefused: s.JumpsRefused,
		Matches: len(res.Matches),
	}
}

// readGolden loads the committed golden rows.
func readGolden(t *testing.T) []goldenRow {
	t.Helper()
	data, err := os.ReadFile(countersGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var rows []goldenRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("%s: %v", countersGoldenPath, err)
	}
	return rows
}

// TestCountersGolden compares every deterministic counter of every
// catalogue query against testdata/counters_golden.json, exactly. A change
// that moves one of them must say so and regenerate the file with
// `go test -run TestCountersGolden -update .`; a performance change must
// leave the file alone.
func TestCountersGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates the whole catalogue at benchmark scale")
	}
	rows := goldenRows(t)
	if *updateGolden {
		var buf []byte
		buf = append(buf, "[\n"...)
		for i, r := range rows {
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			buf = append(append(buf, "  "...), line...)
			if i < len(rows)-1 {
				buf = append(buf, ',')
			}
			buf = append(buf, '\n')
		}
		buf = append(buf, "]\n"...)
		if err := os.WriteFile(countersGoldenPath, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(rows), countersGoldenPath)
		return
	}
	want := readGolden(t)
	if len(want) != len(rows) {
		t.Fatalf("%d rows evaluated, %d in %s", len(rows), len(want), countersGoldenPath)
	}
	for i, r := range rows {
		if r != want[i] {
			t.Errorf("%s:\n got  %+v\n want %+v", r.Key, r, want[i])
		}
	}
}
