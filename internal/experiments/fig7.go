package experiments

import (
	"fmt"

	"viewjoin"
	"viewjoin/internal/workload"
)

// Fig7 reproduces Fig. 7: scalability of VJ+LE on XMark documents growing
// from 1x to 7x the configured scale (the paper's 100MB..700MB sweep),
// for benchmark queries Q11 and Q19. Reported per size: peak memory of the
// intermediate DAG (Fig 7(a)) and total processing time with the simulated
// I/O share (Fig 7(b)). Expected shape: both memory and time grow linearly
// with document size; I/O stays a small fraction of total time (paper:
// <20MB memory and <15% I/O at 700MB).
func Fig7(cfg Config) error {
	cfg = cfg.withDefaults()
	w := cfg.Out
	queries := map[string]workload.Query{}
	for _, q := range workload.XMarkTwig() {
		if q.Name == "Q11" || q.Name == "Q19" {
			queries[q.Name] = q
		}
	}
	fmt.Fprintln(w, "Fig 7: scalability of VJ+LE on growing XMark documents")
	fmt.Fprintf(w, "%-6s %-6s %10s %12s %12s %12s %10s\n",
		"query", "scale", "nodes", "peak mem", "time", "pages read", "matches")
	for _, name := range []string{"Q11", "Q19"} {
		query := queries[name]
		for mult := 1; mult <= 7; mult++ {
			scale := cfg.XMarkScale * float64(mult)
			d := viewjoin.GenerateXMark(scale)
			mats, err := materializeAll(d, query, []viewjoin.StorageScheme{viewjoin.SchemeLE})
			if err != nil {
				return err
			}
			q, err := viewjoin.ParseQuery(query.Pattern.String())
			if err != nil {
				return err
			}
			m, err := run(cfg, d, q, mats[viewjoin.SchemeLE],
				combo{viewjoin.EngineViewJoin, viewjoin.SchemeLE}, false)
			if err != nil {
				return fmt.Errorf("%s x%d: %w", name, mult, err)
			}
			fmt.Fprintf(w, "%-6s %-6dx %10d %12s %12s %12d %10d\n",
				name, mult, d.NumNodes(),
				fmtMB(m.Stats.PeakMemoryBytes), fmtDur(m.Time), m.Stats.PagesRead, m.Matches)
		}
	}
	return nil
}
