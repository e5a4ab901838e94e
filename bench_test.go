package viewjoin_test

// Benchmarks of what no experiment of cmd/vjbench times: view selection,
// view materialization, cursor pages, document updates and view
// maintenance. The paper's tables
// and figures (§VI) are printed by cmd/vjbench, whose cells report the
// median and quartiles of their samples beside the golden counters.
//
// benchSetup builds the documents and views of BenchmarkSelectViews,
// BenchmarkDeepPage and BenchmarkPageSweep once, outside the timed loops,
// at the golden file's scale (XMark 0.25 / Nasa 1000).

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"viewjoin"
	"viewjoin/internal/tpq"
	"viewjoin/internal/workload"
)

const (
	benchXMarkScale   = 0.25
	benchNasaDatasets = 1000
)

var (
	benchOnce  sync.Once
	benchXMark *viewjoin.Document
	benchNasa  *viewjoin.Document
	benchMats  map[string]map[viewjoin.StorageScheme][]*viewjoin.MaterializedView
	benchQuery map[string]*viewjoin.Query
)

type benchCombo struct {
	name   string
	engine viewjoin.Engine
	scheme viewjoin.StorageScheme
}

// benchSetup builds the benchmark documents and materializes every
// workload query's views in every scheme, once.
func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		benchXMark = viewjoin.GenerateXMark(benchXMarkScale)
		benchNasa = viewjoin.GenerateNasa(benchNasaDatasets)
		benchMats = make(map[string]map[viewjoin.StorageScheme][]*viewjoin.MaterializedView)
		benchQuery = make(map[string]*viewjoin.Query)

		add := func(d *viewjoin.Document, queries []workload.Query) {
			for _, wq := range queries {
				q, err := viewjoin.ParseQuery(wq.Pattern.String())
				if err != nil {
					panic(err)
				}
				benchQuery[wq.Name] = q
				vs := make([]*viewjoin.Query, len(wq.Views))
				for i, p := range wq.Views {
					v, err := viewjoin.ParseQuery(p.String())
					if err != nil {
						panic(err)
					}
					vs[i] = v
				}
				per := make(map[viewjoin.StorageScheme][]*viewjoin.MaterializedView)
				schemes := []viewjoin.StorageScheme{viewjoin.SchemeElement, viewjoin.SchemeLE, viewjoin.SchemeLEp}
				if wq.Path {
					schemes = append(schemes, viewjoin.SchemeTuple)
				}
				for _, s := range schemes {
					mv, err := d.MaterializeViews(vs, s)
					if err != nil {
						panic(err)
					}
					per[s] = mv
				}
				benchMats[wq.Name] = per
			}
		}
		add(benchXMark, workload.XMarkPath())
		add(benchXMark, workload.XMarkTwig())
		add(benchNasa, workload.NasaPath())
		add(benchNasa, workload.NasaTwig())
	})
}

// BenchmarkSelectViews: the §V greedy cost-based selection over Table
// II's pool of six candidate views for Nt.
func BenchmarkSelectViews(b *testing.B) {
	benchSetup(b)
	q := viewjoin.MustParseQuery(workload.Nt().String())
	var pool []*viewjoin.MaterializedView
	for _, row := range workload.TableIIPool() {
		vq, err := viewjoin.ParseQuery(row.View.String())
		if err != nil {
			b.Fatal(err)
		}
		mv, err := benchNasa.MaterializeView(vq, viewjoin.SchemeLE, nil)
		if err != nil {
			b.Fatal(err)
		}
		pool = append(pool, mv)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := viewjoin.SelectViews(pool, q, viewjoin.DefaultLambda); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaterializeView times the view half of a set-up as the library
// runs it: Document.MaterializeView in LEp — solution lists, pointers and
// the store build — over every distinct view pattern of the Nasa
// catalogue (N1, N2, N5–N8 and Table III's PV1–PV4) at Nasa 4000, in ns
// per list entry.
func BenchmarkMaterializeView(b *testing.B) {
	doc := viewjoin.GenerateNasa(4000)
	var sets [][]*tpq.Pattern
	all := workload.All()
	for _, n := range []string{"N1", "N2", "N5", "N6", "N7", "N8"} {
		sets = append(sets, all[n].Views)
	}
	for _, c := range workload.TableIII()[:4] {
		sets = append(sets, c.Views)
	}
	seen := make(map[string]bool)
	var vs []*viewjoin.Query
	for _, set := range sets {
		for _, p := range set {
			if !seen[p.String()] {
				seen[p.String()] = true
				vs = append(vs, viewjoin.MustParseQuery(p.String()))
			}
		}
	}
	entries := 0
	sweep := func() {
		entries = 0
		for _, v := range vs {
			mv, err := doc.MaterializeView(v, viewjoin.SchemeLEp, nil)
			if err != nil {
				b.Fatal(err)
			}
			entries += mv.NumEntries()
		}
	}
	sweep() // the document's type index is built once, whatever b.N is
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		sweep()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*entries), "ns/entry")
	b.ReportMetric(float64(entries), "entries")
}

// BenchmarkDeepPage: one cursor page (a single row, so that Q4's 400 rows
// hold 200 of them) of a prepared VJ+LEp plan, at the start of the result
// and 200 pages in. A cursor run seeks to its page, so the two cost the
// same; "scanned" is the page's ElementsScanned.
func BenchmarkDeepPage(b *testing.B) {
	benchSetup(b)
	for _, name := range []string{"Q14", "Q4"} {
		p, err := viewjoin.Prepare(benchXMark, benchQuery[name], benchMats[name][viewjoin.SchemeLEp], viewjoin.EngineViewJoin, nil)
		if err != nil {
			b.Fatal(err)
		}
		full, err := p.Run()
		if err != nil {
			b.Fatal(err)
		}
		for _, page := range []int{1, 200} {
			ro := &viewjoin.RunOptions{Limit: 1}
			if page > 1 {
				ro.After = cursorOf(full.Matches[page-2])
			}
			b.Run(fmt.Sprintf("%s/page=%d", name, page), func(b *testing.B) {
				var scanned int64
				for i := 0; i < b.N; i++ {
					res, err := p.RunWith(context.Background(), ro)
					if err != nil || len(res.Matches) != 1 || res.Matches[0][0] != full.Matches[page-1][0] {
						b.Fatalf("page %d: %v, %d rows", page, err, len(res.Matches))
					}
					scanned = res.Stats.ElementsScanned
				}
				b.ReportMetric(float64(scanned), "scanned")
			})
		}
	}
}

// BenchmarkApply: one Document.Apply at the benchmark's document size
// (XMark 4, 450k nodes). The three splices are staged, not committed, so
// each runs against the same snapshot with a half-full piece table; the
// fourth is the Apply that finds the table full and writes it out flat
// first — the pass the other three no longer make.
func BenchmarkApply(b *testing.B) {
	doc := viewjoin.GenerateXMark(4)
	frag, err := viewjoin.ParseDocumentString(`<item><location/><name/><description><text><keyword/></text></description></item>`)
	if err != nil {
		b.Fatal(err)
	}
	items := viewjoin.EvaluateDirect(doc, viewjoin.MustParseQuery("//item")).Matches
	apply := func(d *viewjoin.Document, u viewjoin.Update) {
		if _, err := d.Apply(u); err != nil {
			b.Fatal(err)
		}
	}
	// Inserts from the back leave the recorded start labels in front valid.
	for k := 15; k >= 1; k-- {
		apply(doc, viewjoin.Update{Op: viewjoin.InsertBefore, TargetStart: items[k*len(items)/16][0].Start, Fragment: frag})
	}
	mid := items[len(items)/32][0].Start
	for _, c := range []struct {
		name string
		u    viewjoin.Update
	}{
		{"insert-front", viewjoin.Update{Op: viewjoin.InsertBefore, TargetStart: items[0][0].Start, Fragment: frag}},
		{"append-child", viewjoin.Update{Op: viewjoin.AppendChild, TargetStart: mid, Fragment: frag}},
		{"delete", viewjoin.Update{Op: viewjoin.DeleteSubtree, TargetStart: mid}},
	} {
		b.Run(fmt.Sprintf("%s/pieces=%d", c.name, doc.NumPieces()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := doc.Stage(c.u); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Appends on the root grow a table by one piece each. A throwaway
	// document shows at which size the next Apply writes it out.
	onRoot := viewjoin.Update{Op: viewjoin.AppendChild, TargetStart: 1, Fragment: frag}
	probe, err := viewjoin.ParseDocumentString("<site/>")
	if err != nil {
		b.Fatal(err)
	}
	full := 0
	for probe.NumPieces() >= full {
		full = probe.NumPieces()
		apply(probe, onRoot)
	}
	b.Run(fmt.Sprintf("write-out/pieces=%d", full), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for doc.NumPieces() != full {
				apply(doc, onRoot)
			}
			b.StartTimer()
			apply(doc, onRoot)
		}
	})
}

// BenchmarkMaintain: one view's Maintain at XMark 4 over update-mixed's
// five LEp views (Q13's and Q14's). Fifteen item inserts, maintained
// through every view, fill the lists' piece tables about half way; each
// view then derives its successor under one more insert, staged and never
// committed, so every iteration splices the same half-full table. The
// write-out sub-benchmark times the Maintain that finds a table full and
// writes the view out flat first — the O(view) pass the others no longer
// make.
func BenchmarkMaintain(b *testing.B) {
	doc := viewjoin.GenerateXMark(4)
	frag, err := viewjoin.ParseDocumentString(`<item><location/><quantity/><name/><description><text><keyword/></text></description></item>`)
	if err != nil {
		b.Fatal(err)
	}
	var mviews []*viewjoin.MaterializedView
	for _, q := range workload.XMarkTwig() {
		if q.Name != "Q13" && q.Name != "Q14" {
			continue
		}
		for _, v := range q.Views {
			mv, err := doc.MaterializeView(viewjoin.MustParseQuery(v.String()), viewjoin.SchemeLEp, nil)
			if err != nil {
				b.Fatal(err)
			}
			mviews = append(mviews, mv)
		}
	}
	update := func(u viewjoin.Update) {
		au, err := doc.Apply(u)
		if err != nil {
			b.Fatal(err)
		}
		for _, mv := range mviews {
			if _, err := mv.Maintain(au); err != nil {
				b.Fatal(err)
			}
		}
	}
	items := viewjoin.EvaluateDirect(doc, viewjoin.MustParseQuery("//item")).Matches
	// Inserts from the back leave the recorded start labels in front valid.
	for k := 15; k >= 1; k-- {
		update(viewjoin.Update{Op: viewjoin.InsertBefore, TargetStart: items[k*len(items)/16][0].Start, Fragment: frag})
	}
	u := viewjoin.Update{Op: viewjoin.InsertBefore, TargetStart: items[len(items)/32][0].Start, Fragment: frag}
	for _, mv := range mviews {
		b.Run(fmt.Sprintf("%s/pieces=%d", mv.Pattern(), mv.NumPieces()), func(b *testing.B) {
			b.ReportAllocs()
			var st *viewjoin.StagedUpdate
			for i := 0; i < b.N; i++ {
				// A staged update holds every successor derived through it.
				if i%256 == 0 {
					b.StopTimer()
					if st, err = doc.Stage(u); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if _, err := st.Maintain(mv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Appends on the root grow every table; the first Maintain whose
	// report shows fewer pieces than the one before paid the write-out.
	onRoot := viewjoin.Update{Op: viewjoin.AppendChild, TargetStart: 1, Fragment: frag}
	mv := mviews[len(mviews)-1]
	full := 0
	for mv.NumPieces() >= full {
		full = mv.NumPieces()
		update(onRoot)
	}
	b.Run(fmt.Sprintf("write-out/%s/pieces=%d", mv.Pattern(), full), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for mv.NumPieces() != full {
				update(onRoot)
			}
			st, err := doc.Stage(onRoot)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := st.Maintain(mv); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			update(onRoot)
			b.StartTimer()
		}
	})
}
