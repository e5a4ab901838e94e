package experiments

import (
	"fmt"

	"viewjoin"
	"viewjoin/internal/workload"
)

// Fig6a reproduces Fig. 6(a): the path query Np evaluated with the view
// sets PV1..PV4 of Table III (5, 4, 3, 2 inter-view edges). As the
// interleaving complexity decreases, IJ, VJ+LE and VJ+LEp speed up (more
// precomputed joins to reuse); TS and VJ+E are largely insensitive.
func Fig6a(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(cfg.Out, "Fig 6(a): impact of interleaving conditions — path query Np")
	combos := []combo{
		{viewjoin.EngineInterJoin, viewjoin.SchemeTuple},
		{viewjoin.EngineTwigStack, viewjoin.SchemeElement},
		{viewjoin.EngineViewJoin, viewjoin.SchemeElement},
		{viewjoin.EngineViewJoin, viewjoin.SchemeLE},
		{viewjoin.EngineViewJoin, viewjoin.SchemeLEp},
	}
	return interleavingTable(cfg, "PV", combos)
}

// Fig6b reproduces Fig. 6(b): the twig query Nt with view sets TV1..TV4
// (6, 4, 3, 2 inter-view edges); no InterJoin (twig query).
func Fig6b(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(cfg.Out, "Fig 6(b): impact of interleaving conditions — twig query Nt")
	combos := []combo{
		{viewjoin.EngineTwigStack, viewjoin.SchemeElement},
		{viewjoin.EngineViewJoin, viewjoin.SchemeElement},
		{viewjoin.EngineViewJoin, viewjoin.SchemeLE},
		{viewjoin.EngineViewJoin, viewjoin.SchemeLEp},
	}
	return interleavingTable(cfg, "TV", combos)
}

func interleavingTable(cfg Config, prefix string, combos []combo) error {
	w := cfg.Out
	d := viewjoin.GenerateNasa(cfg.NasaDatasets)
	fmt.Fprintf(w, "%-5s %6s", "views", "#Cond")
	for _, c := range combos {
		fmt.Fprintf(w, " %12s", c.String())
	}
	fmt.Fprintln(w)
	for _, row := range workload.TableIII() {
		if row.Name[:2] != prefix {
			continue
		}
		wq := workload.Query{Name: row.Name, Pattern: row.Query, Views: row.Views, Path: row.Query.IsPath()}
		mats, err := materializeAll(d, wq, schemesFor(combos))
		if err != nil {
			return err
		}
		q, err := viewjoin.ParseQuery(row.Query.String())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-5s %6d", row.Name, row.Cond)
		matches := -1
		for _, c := range combos {
			m, err := run(cfg, d, q, mats[c.scheme], c, false)
			if err != nil {
				return fmt.Errorf("%s %s: %w", row.Name, c, err)
			}
			if matches == -1 {
				matches = m.Matches
			} else if m.Matches != matches {
				return fmt.Errorf("%s: %s returned %d matches, others %d", row.Name, c, m.Matches, matches)
			}
			fmt.Fprintf(w, " %12s", fmtDur(m.Time))
		}
		fmt.Fprintln(w)
	}
	return nil
}
