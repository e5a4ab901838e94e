package experiments

import (
	"fmt"

	"viewjoin"
	"viewjoin/internal/workload"
)

// Fig7 reproduces Fig. 7: scalability of VJ+LE on XMark documents growing
// from 1x to 7x the configured scale (the paper's 100MB..700MB sweep),
// for benchmark queries Q11 and Q19. Reported per size: peak memory of the
// intermediate DAG (Fig 7(a)), total processing time (Fig 7(b)) and pages
// read, the run's I/O. Expected shape: memory, time and pages all grow
// linearly with document size (paper: <20MB memory and <15% I/O at 700MB).
func Fig7(cfg Config) error {
	cfg = cfg.withDefaults()
	w := cfg.Out
	queries := map[string]workload.Query{}
	for _, q := range workload.XMarkTwig() {
		if q.Name == "Q11" || q.Name == "Q19" {
			queries[q.Name] = q
		}
	}
	fmt.Fprintf(w, "Fig 7: scalability of VJ+LE on growing XMark documents, time = median [Q1, Q3] of %d samples\n", cfg.Repeats)
	fmt.Fprintf(w, "%-6s %-6s %10s %12s %27s %12s %10s\n",
		"query", "scale", "nodes", "peak mem", "time", "pages read", "matches")
	for _, name := range []string{"Q11", "Q19"} {
		query := queries[name]
		for mult := 1; mult <= 7; mult++ {
			d := viewjoin.GenerateXMark(cfg.XMarkScale * float64(mult))
			mats, err := materialize(d, query.Views, viewjoin.SchemeLE)
			if err != nil {
				return err
			}
			q, err := viewjoin.ParseQuery(query.Pattern.String())
			if err != nil {
				return err
			}
			ss, err := measure(cfg.Repeats, vjLE.evaluate(d, q, mats))
			if err != nil {
				return fmt.Errorf("%s x%d: %w", name, mult, err)
			}
			m := ss[0]
			fmt.Fprintf(w, "%-6s %-6s %10d %12s %27s %12d %10d\n",
				name, fmt.Sprintf("%dx", mult), d.NumNodes(),
				fmtMB(m.stats.PeakMemoryBytes), m, m.stats.PagesRead, m.matches)
		}
	}
	return nil
}
