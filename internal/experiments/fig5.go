package experiments

import (
	"fmt"

	"viewjoin"
	"viewjoin/internal/workload"
)

// Fig5a reproduces Fig. 5(a): the six XMark path queries across all seven
// storage/algorithm combinations.
func Fig5a(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(cfg.Out, "Fig 5(a): path queries on XMark — total processing time")
	d := viewjoin.GenerateXMark(cfg.XMarkScale)
	return comboTable(cfg, d, workload.XMarkPath(), sevenCombos())
}

// Fig5b reproduces Fig. 5(b): the four Nasa path queries across all seven
// combinations.
func Fig5b(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(cfg.Out, "Fig 5(b): path queries on Nasa — total processing time")
	d := viewjoin.GenerateNasa(cfg.NasaDatasets)
	return comboTable(cfg, d, workload.NasaPath(), sevenCombos())
}

// Fig5c reproduces Fig. 5(c): the eight XMark twig queries across the six
// element-family combinations (InterJoin handles only path queries/views).
func Fig5c(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(cfg.Out, "Fig 5(c): twig queries on XMark — total processing time")
	d := viewjoin.GenerateXMark(cfg.XMarkScale)
	return comboTable(cfg, d, workload.XMarkTwig(), sixCombos())
}

// Fig5d reproduces Fig. 5(d): the four Nasa twig queries across the six
// element-family combinations.
func Fig5d(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(cfg.Out, "Fig 5(d): twig queries on Nasa — total processing time")
	d := viewjoin.GenerateNasa(cfg.NasaDatasets)
	return comboTable(cfg, d, workload.NasaTwig(), sixCombos())
}

// Motivation reproduces the experiment behind the paper's motivation (§I)
// and observation 2 (§VI-A): comparing InterJoin (tuple views) against
// PathStack (element views) shows no clear winner — the tuple scheme's
// data redundancy decides each case. Queries whose views repeat high-fanout
// ancestors in every tuple (Q1, Q2, Q20, N1) favour PathStack; the others
// favour InterJoin.
func Motivation(cfg Config) error {
	cfg = cfg.withDefaults()
	w := cfg.Out
	fmt.Fprintln(w, "Motivation: InterJoin (tuple views) vs PathStack (element views)")
	fmt.Fprintln(w, "work = elements scanned + comparisons (deterministic; wall time is noisy at this scale)")
	fmt.Fprintf(w, "%-6s %12s %12s %9s %12s %12s %10s %14s\n",
		"query", "IJ+T", "PS+E", "IJ/PS", "work IJ", "work PS", "workIJ/PS", "tuple labels")

	type job struct {
		doc     *viewjoin.Document
		queries []workload.Query
	}
	xm := viewjoin.GenerateXMark(cfg.XMarkScale)
	ns := viewjoin.GenerateNasa(cfg.NasaDatasets)
	for _, j := range []job{{xm, workload.XMarkPath()}, {ns, workload.NasaPath()}} {
		for _, query := range j.queries {
			mats, err := materializeAll(j.doc, query, []viewjoin.StorageScheme{
				viewjoin.SchemeTuple, viewjoin.SchemeElement,
			})
			if err != nil {
				return err
			}
			q, err := viewjoin.ParseQuery(query.Pattern.String())
			if err != nil {
				return err
			}
			ij, err := run(cfg, j.doc, q, mats[viewjoin.SchemeTuple],
				combo{viewjoin.EngineInterJoin, viewjoin.SchemeTuple}, false)
			if err != nil {
				return err
			}
			ps, err := run(cfg, j.doc, q, mats[viewjoin.SchemeElement],
				combo{viewjoin.EnginePathStack, viewjoin.SchemeElement}, false)
			if err != nil {
				return err
			}
			if ij.Matches != ps.Matches {
				return fmt.Errorf("%s: IJ %d matches, PS %d — engines disagree", query.Name, ij.Matches, ps.Matches)
			}
			var tupleLabels int
			for _, mv := range mats[viewjoin.SchemeTuple] {
				tupleLabels += mv.NumEntries() * mv.Pattern().NumNodes()
			}
			workIJ := ij.Stats.ElementsScanned + ij.Stats.Comparisons
			workPS := ps.Stats.ElementsScanned + ps.Stats.Comparisons
			fmt.Fprintf(w, "%-6s %12s %12s %8.2fx %12d %12d %9.2fx %14d\n",
				query.Name, fmtDur(ij.Time), fmtDur(ps.Time),
				float64(ij.Time)/float64(ps.Time), workIJ, workPS,
				float64(workIJ)/float64(workPS), tupleLabels)
		}
	}
	return nil
}
