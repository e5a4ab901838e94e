package viewjoin

import (
	"testing"

	"viewjoin/internal/counters"
	"viewjoin/internal/engine"
	"viewjoin/internal/tpq"
	"viewjoin/internal/workload"
)

// TestNoRunRetouchesAPage runs every catalogue query of the golden file
// (testdata/counters_golden.json, same documents and scale) under every
// engine/scheme pair of its grid, whole and paged (an output quota no query
// reaches, as the golden file's paged rows), and fails when a run touches
// the same page of the same file twice. Every touch is charged as a read,
// so this is what makes PagesRead the number of distinct pages a run
// reads: a forward cursor charges a page once, when its window slides onto
// it, and never comes back.
func TestNoRunRetouchesAPage(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates the whole catalogue at benchmark scale")
	}
	type query struct {
		name         string
		pattern      *tpq.Pattern
		viewPatterns []*tpq.Pattern
	}
	var queries []query
	for _, wq := range workload.All() {
		queries = append(queries, query{wq.Name, wq.Pattern, wq.Views})
	}
	for _, c := range workload.TableIII() {
		queries = append(queries, query{c.Name, c.Query, c.Views})
	}
	combos := []struct {
		name     string
		engine   Engine
		scheme   StorageScheme
		pathOnly bool
	}{
		{"VJ+LEp", EngineViewJoin, SchemeLEp, false},
		{"VJ+LE", EngineViewJoin, SchemeLE, false},
		{"VJ+E", EngineViewJoin, SchemeElement, false},
		{"TS+E", EngineTwigStack, SchemeElement, false},
		{"TS+LEp", EngineTwigStack, SchemeLEp, false},
		{"TS+LE", EngineTwigStack, SchemeLE, false},
		{"PS+E", EnginePathStack, SchemeElement, true},
		{"IJ+T", EngineInterJoin, SchemeTuple, true},
	}
	shapes := []struct {
		name string
		opts engine.Options
	}{{"whole", engine.Options{}}, {"paged", engine.Options{First: 1 << 30}}}
	xmark, nasa := GenerateXMark(0.25), GenerateNasa(1000)

	type page struct {
		file uintptr
		page int32
	}
	seen := map[page]bool{}
	io := &counters.IO{C: new(counters.Counters)}
	for _, wq := range queries {
		doc := nasa
		if wq.name[0] == 'Q' {
			doc = xmark
		}
		q := MustParseQuery(wq.pattern.String())
		vs := make([]*Query, len(wq.viewPatterns))
		for i, p := range wq.viewPatterns {
			vs[i] = MustParseQuery(p.String())
		}
		mats := map[StorageScheme][]*MaterializedView{}
		for _, combo := range combos {
			if combo.pathOnly && !q.IsPath() {
				continue
			}
			if mats[combo.scheme] == nil {
				mv, err := doc.MaterializeViews(vs, combo.scheme)
				if err != nil {
					t.Fatalf("%s/%s: %v", wq.name, combo.name, err)
				}
				mats[combo.scheme] = mv
			}
			p, err := Prepare(doc, q, mats[combo.scheme], combo.engine, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", wq.name, combo.name, err)
			}
			for _, shape := range shapes {
				clear(seen)
				var first page
				repeats := 0
				io.Page = func(file uintptr, pg int32) {
					k := page{file, pg}
					if seen[k] {
						if repeats == 0 {
							first = k
						}
						repeats++
					}
					seen[k] = true
				}
				if _, _, err := p.plan.Run(io, shape.opts); err != nil {
					t.Fatalf("%s/%s/%s: %v", wq.name, combo.name, shape.name, err)
				}
				if repeats > 0 {
					t.Errorf("%s/%s/%s: %d of %d page touches repeat one (first: file %#x page %d)",
						wq.name, combo.name, shape.name, repeats, repeats+len(seen), first.file, first.page)
				}
			}
		}
	}
}
