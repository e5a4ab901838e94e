package viewjoin_test

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"viewjoin"
	"viewjoin/internal/tpq"
	"viewjoin/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/counters_golden.json and testdata/view_store_golden.txt from this build")

const countersGoldenPath = "testdata/counters_golden.json"

// goldenRow is the deterministic cost of one catalogue query under one
// engine, scheme and run shape. Nothing in it depends on the machine, so
// the file pins the cost model across rewrites of the code that implements
// it.
type goldenRow struct {
	Key          string `json:"key"`
	Scanned      int64  `json:"scanned"`
	Comparisons  int64  `json:"comparisons"`
	Derefs       int64  `json:"derefs"`
	PagesRead    int64  `json:"pagesRead"`
	PagesWritten int64  `json:"pagesWritten"`
	JumpsTaken   int64  `json:"jumpsTaken"`
	JumpsRefused int64  `json:"jumpsRefused"`
	Matches      int    `json:"matches"`
}

// goldenRows evaluates every catalogue query of internal/workload — the 22
// named queries and the eight Table III interleaving cases — at XMark 0.25
// / Nasa 1000. The grid is every engine/scheme pair of the paper's Fig 5,
// whole-document and as a three-way partitioned run; its IJ+T rows are
// Run's per-execution costs, the tuple streams having been scanned once at
// Prepare. After the grid, each query gets the single-dimension variants,
// all whole-document (TestGoldenDimensionsAreLive holds each of them to
// moving some counter on some query):
//
//	IJ+T/whole+prepare    the one-shot Evaluate, preparation scans folded
//	                      in — the figure the paper's IJ bars correspond to
//	VJ+LE, TS+E/disk      RunOptions.DiskBased (Table V)
//	VJ+LEp/paged          RunOptions.Limit no query reaches (1<<30): a bounded
//	                      run flushes finished sub-regions early, as every
//	                      /query page does: more enumeration, the same
//	                      records, pointers and pages as the whole run
//	TS, PS/raw            EvaluateWithoutViews, once per named query
func goldenRows(t *testing.T) []goldenRow {
	t.Helper()
	type query struct {
		name    string
		pattern *tpq.Pattern
		views   []*tpq.Pattern
		named   bool
	}
	var queries []query
	for _, wq := range workload.All() {
		queries = append(queries, query{wq.Name, wq.Pattern, wq.Views, true})
	}
	for _, c := range workload.TableIII() {
		queries = append(queries, query{c.Name, c.Query, c.Views, false})
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
		{"TS+LE", viewjoin.EngineTwigStack, viewjoin.SchemeLE, false},
		{"IJ+T", viewjoin.EngineInterJoin, viewjoin.SchemeTuple, true},
	}
	xmark, nasa := viewjoin.GenerateXMark(0.25), viewjoin.GenerateNasa(1000)

	var rows []goldenRow
	for _, wq := range queries {
		doc := nasa
		if wq.name[0] == 'Q' {
			doc = xmark
		}
		q := viewjoin.MustParseQuery(wq.pattern.String())
		vs := viewQueries(wq.views)
		mats := map[viewjoin.StorageScheme][]*viewjoin.MaterializedView{}
		views := func(s viewjoin.StorageScheme) []*viewjoin.MaterializedView {
			if mats[s] == nil {
				mv, err := doc.MaterializeViews(vs, s)
				if err != nil {
					t.Fatalf("%s %s: %v", wq.name, s, err)
				}
				mats[s] = mv
			}
			return mats[s]
		}
		add := func(key string, res *viewjoin.Result, err error) {
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			rows = append(rows, goldenRowOf(key, res))
		}
		for _, c := range combos {
			if c.pathOnly && !q.IsPath() {
				continue
			}
			key := wq.name + "/" + c.name
			p, err := viewjoin.Prepare(doc, q, views(c.scheme), c.engine, nil)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			res, err := p.Run()
			add(key+"/whole", res, err)
			res, err = p.RunWith(context.Background(), &viewjoin.RunOptions{Parallelism: 3})
			add(key+"/parallel=3", res, err)
		}

		evaluate := func(key string, e viewjoin.Engine, s viewjoin.StorageScheme, opts *viewjoin.RunOptions) {
			res, err := viewjoin.Evaluate(nil, doc, q, views(s), e, opts)
			add(wq.name+"/"+key, res, err)
		}
		if q.IsPath() {
			evaluate("IJ+T/whole+prepare", viewjoin.EngineInterJoin, viewjoin.SchemeTuple, nil)
		}
		evaluate("VJ+LE/disk", viewjoin.EngineViewJoin, viewjoin.SchemeLE, &viewjoin.RunOptions{DiskBased: true})
		evaluate("TS+E/disk", viewjoin.EngineTwigStack, viewjoin.SchemeElement, &viewjoin.RunOptions{DiskBased: true})
		p, err := viewjoin.Prepare(doc, q, views(viewjoin.SchemeLEp), viewjoin.EngineViewJoin, nil)
		if err != nil {
			t.Fatalf("%s: %v", wq.name, err)
		}
		res, err := p.RunWith(context.Background(), &viewjoin.RunOptions{Limit: 1 << 30})
		add(wq.name+"/VJ+LEp/paged", res, err)
		if wq.named {
			res, err := viewjoin.EvaluateWithoutViews(nil, doc, q, viewjoin.EngineTwigStack, nil)
			add(wq.name+"/TS/raw", res, err)
			if q.IsPath() {
				res, err = viewjoin.EvaluateWithoutViews(nil, doc, q, viewjoin.EnginePathStack, nil)
				add(wq.name+"/PS/raw", res, err)
			}
		}
	}
	return rows
}

// viewQueries lifts a catalogue entry's view patterns to the public type.
func viewQueries(views []*tpq.Pattern) []*viewjoin.Query {
	vs := make([]*viewjoin.Query, len(views))
	for i, p := range views {
		vs[i] = viewjoin.MustParseQuery(p.String())
	}
	return vs
}

// goldenRowOf is the row a materialized run's Result pins under key.
func goldenRowOf(key string, res *viewjoin.Result) goldenRow {
	s := res.Stats
	return goldenRow{
		Key:     key,
		Scanned: s.ElementsScanned, Comparisons: s.Comparisons, Derefs: s.PointerDerefs,
		PagesRead: s.PagesRead, PagesWritten: s.PagesWritten,
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

// TestGoldenDimensionsAreLive holds every dimension of the golden file to
// deciding something: a key is query/combo/value..., the file's first row
// names the default value of each position, and every other value must, on
// at least one query, move some counter against the row that differs from
// it only by carrying the default there (a raw-stream row is held against
// its engine's E-scheme row). A value whose rows are all copies doubles
// what the file costs to keep and pins nothing.
func TestGoldenDimensionsAreLive(t *testing.T) {
	rows := readGolden(t)
	byKey := map[string]goldenRow{}
	for _, r := range rows {
		byKey[r.Key] = r
	}
	defaults := strings.Split(rows[0].Key, "/")[2:]
	live := map[[2]string]bool{} // by value and the default it stands in for
	for _, r := range rows {
		segs := strings.Split(r.Key, "/")
		for i, v := range segs[2:] {
			if v == defaults[i] {
				continue
			}
			base := slices.Clone(segs)
			base[2+i] = defaults[i]
			if v == "raw" {
				base[1] += "+E"
			}
			b, ok := byKey[strings.Join(base, "/")]
			if !ok {
				t.Fatalf("%s: no row %s to hold it against", r.Key, strings.Join(base, "/"))
			}
			b.Key = r.Key
			k := [2]string{v, defaults[i]}
			live[k] = live[k] || b != r
		}
	}
	if len(live) == 0 {
		t.Fatalf("%s has no dimension beside %v", countersGoldenPath, defaults)
	}
	for k, ok := range live {
		if !ok {
			t.Errorf("every %q row equals its %q row counter for counter: the dimension is inert", k[0], k[1])
		}
	}
}
