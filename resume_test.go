package viewjoin_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"viewjoin"
	"viewjoin/internal/workload"
)

// cursorOf is the RunOptions.After value resuming after row.
func cursorOf(row []viewjoin.Node) []int32 {
	after := make([]int32, len(row))
	for i, n := range row {
		after[i] = n.Start
	}
	return after
}

// TestResumeScansOnlyThePage walks every XMark catalogue plan through up to
// 50 cursor pages of 20. The pages concatenate to the unbounded run's rows,
// and no page scans more than perRow records per row it returns, however
// deep it is: a cursor run seeks to its page, where re-scanning pages
// 1..k-1 made page k cost k times page 1, and a bounded run arms its partial
// flushes from the rows it still owes, so a page reads about what its rows
// need. perRow is the catalogue's worst page, Q4's (11.75 records a row at
// XMark 0.25, where its open auctions without a reserve return nothing);
// TS+E's pages fill on the same trigger and meet the same bound. The two
// pages that end a result are exempt: its last rows are final only when the
// lists are read to their end.
func TestResumeScansOnlyThePage(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates catalogue queries at benchmark scale")
	}
	const limit, pages, perRow = 20, 50, 12
	doc := viewjoin.GenerateXMark(0.25)
	for _, c := range sweepCombos {
		for _, wq := range append(workload.XMarkPath(), workload.XMarkTwig()...) {
			name := wq.Name + " " + c.name
			p := prepareCatalogue(t, doc, wq, c.engine, c.scheme)
			var walked [][]viewjoin.Node
			var after []int32
			var scanned []int64
			for len(scanned) < pages {
				res, err := p.RunWith(context.Background(), &viewjoin.RunOptions{Limit: limit, After: after})
				if err != nil {
					t.Fatalf("%s page %d: %v", name, len(scanned)+1, err)
				}
				scanned = append(scanned, res.Stats.ElementsScanned)
				walked = append(walked, res.Matches...)
				if len(res.Matches) < limit {
					scanned = scanned[:max(len(scanned)-2, 0)] // the result ended: its tail pages
					break
				}
				after = cursorOf(res.Matches[limit-1])
			}
			full, err := p.Run()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if want := full.Matches[:min(len(full.Matches), limit*pages)]; !sameRows(walked, want) {
				t.Errorf("%s: %d rows walked, the unbounded run starts with %d", name, len(walked), len(want))
			}
			if len(scanned) > 0 {
				if worst := slices.Max(scanned); worst > perRow*limit {
					t.Errorf("%s: a page of %d rows scans %d records, over %d a row; per page %v",
						name, limit, worst, perRow, scanned)
				}
			}
		}
	}
}

// walkRows pages p row by row: each run resumes after the row before it.
func walkRows(t *testing.T, name string, p *viewjoin.PreparedQuery, k int) [][]viewjoin.Node {
	t.Helper()
	var rows [][]viewjoin.Node
	var after []int32
	for {
		res, err := p.RunWith(context.Background(), &viewjoin.RunOptions{Limit: 1, After: after, Parallelism: k})
		if err != nil {
			t.Fatalf("%s after %v: %v", name, after, err)
		}
		if len(res.Matches) == 0 {
			return rows
		}
		rows = append(rows, res.Matches...)
		after = cursorOf(res.Matches[0])
	}
}

// TestResumeUnderSameTagNesting pages hand-built documents row by row where
// the resume level cannot go below a nested tag: with two nested roots the
// run resumes at the root's label (level 0), with one root over nested b's
// at b's. A match under the outer element of a nesting orders before one
// under the inner element yet binds later records, so a cut taken one level
// too deep loses it. Every engine, sequential and partitioned, must return
// the oracle's rows one by one.
func TestResumeUnderSameTagNesting(t *testing.T) {
	for _, c := range []struct{ xml, query, views string }{
		{`<a><a><b><b><c/></b><c/></b></a><b><c/><c/></b><a><b><c/></b></a></a>`, "//a//b//c", "//a//c; //b"},
		{`<r><b><b><c/><b><c/></b></b><c/></b><b><c/><c/></b></r>`, "//r//b//c", "//r//c; //b"},
		{`<r><b><d/><b><c/><d/></b><c/></b><b><c/><d/><c/></b></r>`, "//r//b[//d]//c", "//r//b//c; //d"},
	} {
		doc, err := viewjoin.ParseDocumentString(c.xml)
		if err != nil {
			t.Fatal(err)
		}
		q := viewjoin.MustParseQuery(c.query)
		vs, err := viewjoin.ParseViews(c.views)
		if err != nil {
			t.Fatal(err)
		}
		want := viewjoin.EvaluateDirect(doc, q).Matches
		if len(want) < 5 {
			t.Fatalf("%s: the oracle has %d rows, too few to page", c.query, len(want))
		}
		combos := []benchCombo{
			{"VJ+LEp", viewjoin.EngineViewJoin, viewjoin.SchemeLEp},
			{"TS+E", viewjoin.EngineTwigStack, viewjoin.SchemeElement},
		}
		if q.IsPath() {
			combos = append(combos,
				benchCombo{"PS+E", viewjoin.EnginePathStack, viewjoin.SchemeElement},
				benchCombo{"IJ+T", viewjoin.EngineInterJoin, viewjoin.SchemeTuple})
		}
		for _, e := range combos {
			mv, err := doc.MaterializeViews(vs, e.scheme)
			if err != nil {
				t.Fatalf("%s %s: %v", c.query, e.name, err)
			}
			p, err := viewjoin.Prepare(doc, q, mv, e.engine, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", c.query, e.name, err)
			}
			for _, k := range []int{1, 3} {
				name := fmt.Sprintf("%s %s parallel=%d", c.query, e.name, k)
				if got := walkRows(t, name, p, k); !sameRows(got, want) {
					t.Errorf("%s: walked %d rows, the oracle has %d", name, len(got), len(want))
				}
			}
		}
	}
}
