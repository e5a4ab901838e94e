package experiments

import (
	"fmt"
	"time"

	"viewjoin"
	"viewjoin/internal/workload"
)

// NoViews reproduces the comparison the paper's footnote 2 (§I)
// distinguishes itself from: the original InterJoin evaluation [22], which
// compared InterJoin *with* materialized views against PathStack *without*
// views and reported gains of up to 1.5x. Here the same engines run with
// and without views over the benchmark path queries, plus TwigStack
// with/without views on the twig queries — the premise ("using appropriate
// materialized views can help improve query evaluation performance") that
// motivates the whole paper.
func NoViews(cfg Config) error {
	cfg = cfg.withDefaults()
	w := cfg.Out
	xm := viewjoin.GenerateXMark(cfg.XMarkScale)
	ns := viewjoin.GenerateNasa(cfg.NasaDatasets)

	fmt.Fprintln(w, "Views vs raw element streams ([22]'s comparison: IJ+views vs PS w/o views)")
	fmt.Fprintf(w, "%-6s %12s %12s %12s %9s %12s %12s\n",
		"query", "IJ+T views", "PS raw", "TS raw", "IJ/PSraw", "scan views", "scan raw")
	type job struct {
		doc     *viewjoin.Document
		queries []workload.Query
	}
	for _, j := range []job{{xm, workload.XMarkPath()}, {ns, workload.NasaPath()}} {
		for _, query := range j.queries {
			q, err := viewjoin.ParseQuery(query.Pattern.String())
			if err != nil {
				return err
			}
			mats, err := materializeAll(j.doc, query, []viewjoin.StorageScheme{viewjoin.SchemeTuple})
			if err != nil {
				return err
			}
			ij, err := run(cfg, j.doc, q, mats[viewjoin.SchemeTuple],
				combo{viewjoin.EngineInterJoin, viewjoin.SchemeTuple}, false)
			if err != nil {
				return err
			}
			psRaw, err := runRaw(cfg, j.doc, q, viewjoin.EnginePathStack)
			if err != nil {
				return err
			}
			tsRaw, err := runRaw(cfg, j.doc, q, viewjoin.EngineTwigStack)
			if err != nil {
				return err
			}
			if ij.Matches != psRaw.Matches || ij.Matches != tsRaw.Matches {
				return fmt.Errorf("noviews: %s: engines disagree (%d / %d / %d)",
					query.Name, ij.Matches, psRaw.Matches, tsRaw.Matches)
			}
			fmt.Fprintf(w, "%-6s %12s %12s %12s %8.2fx %12d %12d\n",
				query.Name, fmtDur(ij.Time), fmtDur(psRaw.Time), fmtDur(tsRaw.Time),
				float64(psRaw.Time)/float64(ij.Time),
				ij.Stats.ElementsScanned, psRaw.Stats.ElementsScanned)
		}
	}

	fmt.Fprintln(w, "\nTwigStack with element-scheme views vs raw streams (twig queries)")
	fmt.Fprintf(w, "%-6s %12s %12s %9s %12s %12s\n",
		"query", "TS+E views", "TS raw", "raw/views", "scan views", "scan raw")
	for _, j := range []job{{xm, workload.XMarkTwig()}, {ns, workload.NasaTwig()}} {
		for _, query := range j.queries {
			q, err := viewjoin.ParseQuery(query.Pattern.String())
			if err != nil {
				return err
			}
			mats, err := materializeAll(j.doc, query, []viewjoin.StorageScheme{viewjoin.SchemeElement})
			if err != nil {
				return err
			}
			ts, err := run(cfg, j.doc, q, mats[viewjoin.SchemeElement],
				combo{viewjoin.EngineTwigStack, viewjoin.SchemeElement}, false)
			if err != nil {
				return err
			}
			raw, err := runRaw(cfg, j.doc, q, viewjoin.EngineTwigStack)
			if err != nil {
				return err
			}
			if ts.Matches != raw.Matches {
				return fmt.Errorf("noviews: %s: with/without views disagree", query.Name)
			}
			fmt.Fprintf(w, "%-6s %12s %12s %8.2fx %12d %12d\n",
				query.Name, fmtDur(ts.Time), fmtDur(raw.Time),
				float64(raw.Time)/float64(ts.Time),
				ts.Stats.ElementsScanned, raw.Stats.ElementsScanned)
		}
	}
	return nil
}

// runRaw measures EvaluateWithoutViews the same way run measures the
// view-based engines (warm-up, averaged repeats, simulated I/O).
func runRaw(cfg Config, d *viewjoin.Document, q *viewjoin.Query, eng viewjoin.Engine) (measurement, error) {
	var m measurement
	if _, err := viewjoin.EvaluateWithoutViews(d, q, eng, nil); err != nil {
		return m, err
	}
	var total int64
	for i := 0; i < cfg.Repeats; i++ {
		res, err := viewjoin.EvaluateWithoutViews(d, q, eng, nil)
		if err != nil {
			return m, err
		}
		total += int64(res.Stats.Duration)
		m.Stats = res.Stats
		m.Matches = len(res.Matches)
	}
	m.Time = time.Duration(total / int64(cfg.Repeats))
	m.IOTime = time.Duration(m.Stats.PagesRead+m.Stats.PagesWritten) * cfg.IOCostPerPage
	m.Time += m.IOTime
	return m, nil
}
