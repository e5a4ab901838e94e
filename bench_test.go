package viewjoin_test

// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VI), one Benchmark per table/figure with sub-benchmarks per
// storage/algorithm combination. Each iteration of a Fig5/Fig6/Table5
// sub-benchmark evaluates every query of that figure under the named
// combination, so ns/op is directly comparable across combinations — the
// paper's bar charts read off the relative heights.
//
// Documents and materialized views are built once (outside the timed
// loops) at a reduced scale so `go test -bench=.` stays laptop-friendly;
// cmd/vjbench runs the same experiments at full scale with simulated I/O
// accounting folded in.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"viewjoin"
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

var pathCombos = []benchCombo{
	{"IJ+T", viewjoin.EngineInterJoin, viewjoin.SchemeTuple},
	{"TS+E", viewjoin.EngineTwigStack, viewjoin.SchemeElement},
	{"TS+LE", viewjoin.EngineTwigStack, viewjoin.SchemeLE},
	{"TS+LEp", viewjoin.EngineTwigStack, viewjoin.SchemeLEp},
	{"VJ+E", viewjoin.EngineViewJoin, viewjoin.SchemeElement},
	{"VJ+LE", viewjoin.EngineViewJoin, viewjoin.SchemeLE},
	{"VJ+LEp", viewjoin.EngineViewJoin, viewjoin.SchemeLEp},
}

var twigCombos = pathCombos[1:]

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

func benchDoc(name string) *viewjoin.Document {
	if name[0] == 'N' {
		return benchNasa
	}
	return benchXMark
}

// runFigure times one combination over every query of a figure.
func runFigure(b *testing.B, queries []workload.Query, c benchCombo, opts *viewjoin.EvalOptions) {
	b.Helper()
	matches := 0
	for i := 0; i < b.N; i++ {
		matches = 0
		for _, wq := range queries {
			res, err := viewjoin.Evaluate(benchDoc(wq.Name), benchQuery[wq.Name],
				benchMats[wq.Name][c.scheme], c.engine, opts)
			if err != nil {
				b.Fatalf("%s %s: %v", wq.Name, c.name, err)
			}
			matches += len(res.Matches)
		}
	}
	b.ReportMetric(float64(matches), "matches")
}

func benchFigure(b *testing.B, queries []workload.Query, combos []benchCombo) {
	benchSetup(b)
	for _, c := range combos {
		b.Run(c.name, func(b *testing.B) {
			runFigure(b, queries, c, nil)
		})
	}
}

// BenchmarkMotivation is the §I / §VI-A observation-2 experiment:
// InterJoin over tuple views vs PathStack over element views on the path
// queries; the tuple scheme's redundancy decides each query.
func BenchmarkMotivation(b *testing.B) {
	benchSetup(b)
	queries := append(workload.XMarkPath(), workload.NasaPath()...)
	b.Run("IJ+T", func(b *testing.B) {
		runFigure(b, queries, benchCombo{"IJ+T", viewjoin.EngineInterJoin, viewjoin.SchemeTuple}, nil)
	})
	b.Run("PS+E", func(b *testing.B) {
		runFigure(b, queries, benchCombo{"PS+E", viewjoin.EnginePathStack, viewjoin.SchemeElement}, nil)
	})
}

// BenchmarkFig5a: XMark path queries, all seven combinations.
func BenchmarkFig5a(b *testing.B) { benchFigure(b, workload.XMarkPath(), pathCombos) }

// BenchmarkFig5b: Nasa path queries, all seven combinations.
func BenchmarkFig5b(b *testing.B) { benchFigure(b, workload.NasaPath(), pathCombos) }

// BenchmarkFig5c: XMark twig queries, six combinations (no InterJoin).
func BenchmarkFig5c(b *testing.B) { benchFigure(b, workload.XMarkTwig(), twigCombos) }

// BenchmarkFig5d: Nasa twig queries, six combinations.
func BenchmarkFig5d(b *testing.B) { benchFigure(b, workload.NasaTwig(), twigCombos) }

// benchInterleaving runs a Fig 6 experiment: the same query under view
// sets of decreasing interleaving complexity (Table III).
func benchInterleaving(b *testing.B, prefix string, combos []benchCombo) {
	benchSetup(b)
	for _, row := range workload.TableIII() {
		if row.Name[:2] != prefix {
			continue
		}
		q, err := viewjoin.ParseQuery(row.Query.String())
		if err != nil {
			b.Fatal(err)
		}
		vs := make([]*viewjoin.Query, len(row.Views))
		for i, p := range row.Views {
			vs[i], err = viewjoin.ParseQuery(p.String())
			if err != nil {
				b.Fatal(err)
			}
		}
		mats := map[viewjoin.StorageScheme][]*viewjoin.MaterializedView{}
		for _, c := range combos {
			if _, ok := mats[c.scheme]; ok {
				continue
			}
			mv, err := benchNasa.MaterializeViews(vs, c.scheme)
			if err != nil {
				b.Fatal(err)
			}
			mats[c.scheme] = mv
		}
		for _, c := range combos {
			b.Run(row.Name+"/"+c.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := viewjoin.Evaluate(benchNasa, q, mats[c.scheme], c.engine, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig6a: interleaving impact on path query Np (view sets PV1-PV4).
func BenchmarkFig6a(b *testing.B) {
	benchInterleaving(b, "PV", []benchCombo{
		{"IJ+T", viewjoin.EngineInterJoin, viewjoin.SchemeTuple},
		{"TS+E", viewjoin.EngineTwigStack, viewjoin.SchemeElement},
		{"VJ+LE", viewjoin.EngineViewJoin, viewjoin.SchemeLE},
		{"VJ+LEp", viewjoin.EngineViewJoin, viewjoin.SchemeLEp},
	})
}

// BenchmarkFig6b: interleaving impact on twig query Nt (view sets TV1-TV4).
func BenchmarkFig6b(b *testing.B) {
	benchInterleaving(b, "TV", []benchCombo{
		{"TS+E", viewjoin.EngineTwigStack, viewjoin.SchemeElement},
		{"VJ+LE", viewjoin.EngineViewJoin, viewjoin.SchemeLE},
		{"VJ+LEp", viewjoin.EngineViewJoin, viewjoin.SchemeLEp},
	})
}

// BenchmarkTable2ViewSelection: the §V greedy cost-based selection over the
// Table II pool, then evaluation with the selected set.
func BenchmarkTable2ViewSelection(b *testing.B) {
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
	b.Run("select", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := viewjoin.SelectViews(pool, q, viewjoin.DefaultLambda); err != nil {
				b.Fatal(err)
			}
		}
	})
	sel, err := viewjoin.SelectViews(pool, q, viewjoin.DefaultLambda)
	if err != nil {
		b.Fatal(err)
	}
	bySize, err := viewjoin.SelectViewsBySize(pool, q)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name string
		set  []*viewjoin.MaterializedView
	}{{"eval-cost-based", sel}, {"eval-size-based", bySize}} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := viewjoin.Evaluate(benchNasa, q, v.set, viewjoin.EngineViewJoin, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable4ViewSizes: materialization cost of the space-study views
// per scheme; bytes and pointer counts are reported as metrics (the
// table's content).
func BenchmarkTable4ViewSizes(b *testing.B) {
	benchSetup(b)
	v1, v2 := workload.TableIVViews()
	for _, vp := range []string{v1.String(), v2.String()} {
		vq := viewjoin.MustParseQuery(vp)
		for _, s := range []viewjoin.StorageScheme{viewjoin.SchemeElement, viewjoin.SchemeTuple,
			viewjoin.SchemeLE, viewjoin.SchemeLEp} {
			b.Run(vp+"/"+s.String(), func(b *testing.B) {
				var mv *viewjoin.MaterializedView
				var err error
				for i := 0; i < b.N; i++ {
					mv, err = benchXMark.MaterializeView(vq, s, nil)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(mv.SizeBytes()), "bytes")
				b.ReportMetric(float64(mv.NumPointers()), "pointers")
			})
		}
	}
}

// BenchmarkFig7Scalability: VJ+LE on growing XMark documents (Q11); peak
// window memory is reported as a metric. Linear growth in both ns/op and
// the memory metric is the figure's claim.
func BenchmarkFig7Scalability(b *testing.B) {
	q11 := workload.All()["Q11"]
	q, err := viewjoin.ParseQuery(q11.Pattern.String())
	if err != nil {
		b.Fatal(err)
	}
	for _, mult := range []int{1, 2, 4} {
		d := viewjoin.GenerateXMark(benchXMarkScale * float64(mult))
		vs := make([]*viewjoin.Query, len(q11.Views))
		for i, p := range q11.Views {
			vs[i], err = viewjoin.ParseQuery(p.String())
			if err != nil {
				b.Fatal(err)
			}
		}
		mv, err := d.MaterializeViews(vs, viewjoin.SchemeLE)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(map[int]string{1: "x1", 2: "x2", 4: "x4"}[mult], func(b *testing.B) {
			var peak int64
			for i := 0; i < b.N; i++ {
				res, err := viewjoin.Evaluate(d, q, mv, viewjoin.EngineViewJoin, nil)
				if err != nil {
					b.Fatal(err)
				}
				peak = res.Stats.PeakMemoryBytes
			}
			b.ReportMetric(float64(peak), "peak-mem-bytes")
		})
	}
}

// BenchmarkTable5DiskBased: memory-based vs disk-based output approaches
// for TS+E and VJ+LE over the twig queries.
func BenchmarkTable5DiskBased(b *testing.B) {
	benchSetup(b)
	queries := append(workload.XMarkTwig(), workload.NasaTwig()...)
	variants := []struct {
		name   string
		engine viewjoin.Engine
		scheme viewjoin.StorageScheme
		disk   bool
	}{
		{"TS-M", viewjoin.EngineTwigStack, viewjoin.SchemeElement, false},
		{"TS-D", viewjoin.EngineTwigStack, viewjoin.SchemeElement, true},
		{"VJ-M", viewjoin.EngineViewJoin, viewjoin.SchemeLE, false},
		{"VJ-D", viewjoin.EngineViewJoin, viewjoin.SchemeLE, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var pages int64
			for i := 0; i < b.N; i++ {
				pages = 0
				for _, wq := range queries {
					res, err := viewjoin.Evaluate(benchDoc(wq.Name), benchQuery[wq.Name],
						benchMats[wq.Name][v.scheme],
						v.engine, &viewjoin.EvalOptions{DiskBased: v.disk})
					if err != nil {
						b.Fatal(err)
					}
					pages += res.Stats.PagesRead + res.Stats.PagesWritten
				}
			}
			b.ReportMetric(float64(pages), "pages")
		})
	}
}

// BenchmarkNoViews: raw element-stream evaluation (the [22] baseline
// setting) vs the view-based engines over the same queries.
func BenchmarkNoViews(b *testing.B) {
	benchSetup(b)
	queries := append(workload.XMarkTwig(), workload.NasaTwig()...)
	b.Run("TS-raw", func(b *testing.B) {
		matches := 0
		for i := 0; i < b.N; i++ {
			matches = 0
			for _, wq := range queries {
				res, err := viewjoin.EvaluateWithoutViews(benchDoc(wq.Name), benchQuery[wq.Name],
					viewjoin.EngineTwigStack, nil)
				if err != nil {
					b.Fatal(err)
				}
				matches += len(res.Matches)
			}
		}
		b.ReportMetric(float64(matches), "matches")
	})
	b.Run("TS-views", func(b *testing.B) {
		runFigure(b, queries, benchCombo{"TS+E", viewjoin.EngineTwigStack, viewjoin.SchemeElement}, nil)
	})
	b.Run("VJ-views", func(b *testing.B) {
		runFigure(b, queries, benchCombo{"VJ+LEp", viewjoin.EngineViewJoin, viewjoin.SchemeLEp}, nil)
	})
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
