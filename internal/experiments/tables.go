package experiments

import (
	"fmt"

	"viewjoin"
	"viewjoin/internal/workload"
)

// Table2 reproduces Table II and Example 5.1: the view-selection pool over
// the Nasa dataset for query Nt, with per-view materialized sizes and
// c(v,Q) costs; then both selection heuristics, and a measured evaluation
// of the two selected sets (the paper reports the cost-based set winning
// by 1.93x).
func Table2(cfg Config) error {
	cfg = cfg.withDefaults()
	w := cfg.Out
	d := viewjoin.GenerateNasa(cfg.NasaDatasets)
	q, err := viewjoin.ParseQuery(workload.Nt().String())
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Table II: view selection pool for Q =", q)
	fmt.Fprintf(w, "%-4s %-30s %10s %10s\n", "view", "pattern", "size", "c(v,Q)")
	var pool []*viewjoin.MaterializedView
	for _, row := range workload.TableIIPool() {
		vq, err := viewjoin.ParseQuery(row.View.String())
		if err != nil {
			return err
		}
		mv, err := d.MaterializeView(vq, viewjoin.SchemeLE, nil)
		if err != nil {
			return err
		}
		pool = append(pool, mv)
		cost, err := viewjoin.ViewCost(mv, q, viewjoin.DefaultLambda)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-4s %-30s %10s %10.0f\n", row.Tag, row.View, fmtMB(mv.SizeBytes()), cost)
	}

	costBased, err := viewjoin.SelectViews(pool, q, viewjoin.DefaultLambda)
	if err != nil {
		return err
	}
	bySize, err := viewjoin.SelectViewsBySize(pool, q)
	if err != nil {
		return err
	}
	printSel := func(label string, sel []*viewjoin.MaterializedView) {
		fmt.Fprintf(w, "%s:", label)
		for _, v := range sel {
			fmt.Fprintf(w, " %s;", v.Pattern())
		}
		fmt.Fprintln(w)
	}
	printSel("cost-based selection (λ=1)", costBased)
	printSel("size-based selection      ", bySize)

	evaluate := func(set []*viewjoin.MaterializedView) func() (*viewjoin.Result, error) {
		return func() (*viewjoin.Result, error) {
			return viewjoin.Evaluate(nil, d, q, set, viewjoin.EngineViewJoin, nil)
		}
	}
	ss, err := measure(cfg.Repeats, evaluate(costBased), evaluate(bySize))
	if err != nil {
		return err
	}
	if ss[0].matches != ss[1].matches {
		return fmt.Errorf("table2: selections disagree: %d vs %d matches", ss[0].matches, ss[1].matches)
	}
	fmt.Fprintf(w, "VJ+LE, median [Q1, Q3] of %d samples, with cost-based set: %s; with size-based set: %s (gain %.2fx; paper: 1.93x)\n",
		cfg.Repeats, ss[0], ss[1], float64(ss[1].quartile(2))/float64(ss[0].quartile(2)))
	return nil
}

// Table4 reproduces Table IV: on a large XMark document, the size and
// pointer count of v1 = //item//text//keyword (data nodes occur in
// multiple matches) and v2 = //person//education (they do not) across the
// four storage schemes. Expected shape: E smallest; T vs LE/LEp has no
// clear winner (T loses on v1's redundancy, ties or wins on v2); LEp holds
// roughly half of LE's pointers.
func Table4(cfg Config) error {
	cfg = cfg.withDefaults()
	w := cfg.Out
	// The paper uses the 700MB XMark document here: scale the configured
	// document up 7x, mirroring its 100MB->700MB sweep.
	d := viewjoin.GenerateXMark(cfg.XMarkScale * 7)
	v1p, v2p := workload.TableIVViews()
	fmt.Fprintf(w, "Table IV: views on XMark x%g (%d nodes)\n", cfg.XMarkScale*7, d.NumNodes())
	fmt.Fprintf(w, "%-6s %-24s %10s %10s %10s %10s %12s %12s\n",
		"view", "pattern", "E", "T", "LE", "LEp", "#ptr LE", "#ptr LEp")
	for i, vp := range []string{v1p.String(), v2p.String()} {
		vq, err := viewjoin.ParseQuery(vp)
		if err != nil {
			return err
		}
		sizes := make(map[viewjoin.StorageScheme]int64)
		ptrs := make(map[viewjoin.StorageScheme]int)
		for _, s := range []viewjoin.StorageScheme{viewjoin.SchemeElement, viewjoin.SchemeTuple,
			viewjoin.SchemeLE, viewjoin.SchemeLEp} {
			mv, err := d.MaterializeView(vq, s, nil)
			if err != nil {
				return err
			}
			sizes[s] = mv.SizeBytes()
			ptrs[s] = mv.NumPointers()
		}
		fmt.Fprintf(w, "v%-5d %-24s %10s %10s %10s %10s %12d %12d\n",
			i+1, vp,
			fmtMB(sizes[viewjoin.SchemeElement]), fmtMB(sizes[viewjoin.SchemeTuple]),
			fmtMB(sizes[viewjoin.SchemeLE]), fmtMB(sizes[viewjoin.SchemeLEp]),
			ptrs[viewjoin.SchemeLE], ptrs[viewjoin.SchemeLEp])
	}
	return nil
}
