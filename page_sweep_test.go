package viewjoin_test

import (
	"context"
	"testing"

	"viewjoin"
	"viewjoin/internal/workload"
)

// The page sweep is what a serve-page client does to one plan: up to
// sweepPages cursor pages of sweepLimit rows.
const sweepLimit, sweepPages = 20, 5

// sweepCombos are the two combinations the sweep is held to: the paper's
// engine over its pointer scheme, and the holistic baseline.
var sweepCombos = []benchCombo{
	{"VJ+LEp", viewjoin.EngineViewJoin, viewjoin.SchemeLEp},
	{"TS+E", viewjoin.EngineTwigStack, viewjoin.SchemeElement},
}

// sweepPlans prepares the 14 XMark catalogue plans under c.
func sweepPlans(tb testing.TB, doc *viewjoin.Document, c benchCombo) map[string]*viewjoin.PreparedQuery {
	plans := map[string]*viewjoin.PreparedQuery{}
	for _, wq := range append(workload.XMarkPath(), workload.XMarkTwig()...) {
		plans[wq.Name] = prepareCatalogue(tb, doc, wq, c.engine, c.scheme)
	}
	return plans
}

// pageSweep walks p through the sweep's cursor pages and returns the
// records they scanned and the rows they returned.
func pageSweep(tb testing.TB, name string, p *viewjoin.PreparedQuery) (scanned, rows int64) {
	var after []int32
	for page := 0; page < sweepPages; page++ {
		res, err := p.RunWith(context.Background(), &viewjoin.RunOptions{Limit: sweepLimit, After: after})
		if err != nil {
			tb.Fatalf("%s page %d: %v", name, page+1, err)
		}
		scanned += res.Stats.ElementsScanned
		rows += int64(len(res.Matches))
		if len(res.Matches) < sweepLimit {
			break
		}
		after = cursorOf(res.Matches[sweepLimit-1])
	}
	return scanned, rows
}

// TestPageSweepScansWhatItReturns holds the sweep over every XMark plan to a
// number of records scanned per row returned. A bounded run arms its first
// partial flush from the rows it still owes, and the extension keeps its
// landed record across flushes, so a page reads about what it returns
// rather than a fixed 64-entry window per flush. The bounds sit just above
// the values at XMark 0.25, 3.79 and 3.55, where a 64-entry first flush
// scanned 7.36 and 5.30 (EXPERIMENTS.md, "Paging").
func TestPageSweepScansWhatItReturns(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates catalogue queries at benchmark scale")
	}
	doc := viewjoin.GenerateXMark(0.25)
	bound := map[string]float64{"VJ+LEp": 4.0, "TS+E": 3.75}
	for _, c := range sweepCombos {
		var scanned, rows int64
		for name, p := range sweepPlans(t, doc, c) {
			s, r := pageSweep(t, name+" "+c.name, p)
			scanned, rows = scanned+s, rows+r
		}
		if perRow := float64(scanned) / float64(rows); perRow > bound[c.name] {
			t.Errorf("%s: the sweep scans %d records for %d rows, %.2f a row (bound %.2f)",
				c.name, scanned, rows, perRow, bound[c.name])
		}
	}
}

// BenchmarkPageSweep times the sweep over every XMark plan and reports the
// records it scans per row returned.
func BenchmarkPageSweep(b *testing.B) {
	benchSetup(b)
	for _, c := range sweepCombos {
		plans := sweepPlans(b, benchXMark, c)
		b.Run(c.name, func(b *testing.B) {
			var scanned, rows int64
			for i := 0; i < b.N; i++ {
				scanned, rows = 0, 0
				for name, p := range plans {
					s, r := pageSweep(b, name, p)
					scanned, rows = scanned+s, rows+r
				}
			}
			b.ReportMetric(float64(scanned)/float64(rows), "scanned/row")
		})
	}
}
