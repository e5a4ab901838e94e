package experiments

import (
	"context"
	"fmt"
	"time"

	"viewjoin"
	"viewjoin/internal/workload"
)

// The shards experiment measures real wall time under simulated device
// latency rather than folding an arithmetic I/O term into CPU time the
// way the model-based experiments do: every buffer-pool miss stalls the
// evaluating goroutine for shardIOLatency (batched above the OS timer
// floor), so partitions overlap their waits exactly as concurrent reads
// overlap on hardware. 500µs per miss is loaded-network-storage
// territory; the page size is shrunk so the big twig lists span enough
// pages for the stall term to dominate CPU on one core.
const (
	shardIOLatency = 500 * time.Microsecond
	shardPageSize  = 1024
)

// Shards measures range-partitioned parallel evaluation (RunOptions.Parallelism) on
// the largest XMark twig queries: for TwigStack+E and ViewJoin+LEp it
// compares sequential evaluation (k=1) against cfg.Shards partitions,
// reporting wall time, speedup, and the partition counts actually planned.
// Matches are verified identical between the two runs — the speedup is
// never bought with a wrong answer.
func Shards(cfg Config) error {
	cfg = cfg.withDefaults()
	w := cfg.Out
	fmt.Fprintf(w, "Range-partitioned parallel evaluation: XMark twigs, k=1 vs k=%d (%v/page-miss stall, %dB pages)\n",
		cfg.Shards, shardIOLatency, shardPageSize)
	fmt.Fprintf(w, "%-6s %-8s %12s %12s %9s %6s %10s\n",
		"query", "combo", "k=1", fmt.Sprintf("k=%d", cfg.Shards), "speedup", "parts", "matches")

	d := viewjoin.GenerateXMark(cfg.XMarkScale)
	// The three heaviest twig queries of Fig 5(c): their anchor node
	// (//item) has thousands of candidates spread across the regions
	// subtree, so partition planning has real cuts to balance.
	queries := []workload.Query{
		workload.XMarkTwig()[6], // Q14
		workload.XMarkTwig()[7], // Q19
		workload.XMarkTwig()[5], // Q13
	}
	combos := []combo{
		{viewjoin.EngineTwigStack, viewjoin.SchemeElement},
		{viewjoin.EngineViewJoin, viewjoin.SchemeLEp},
	}

	for _, query := range queries {
		mats, err := materializeAll(d, query, schemesFor(combos))
		if err != nil {
			return err
		}
		q, err := viewjoin.ParseQuery(query.Pattern.String())
		if err != nil {
			return err
		}
		for _, c := range combos {
			p, err := viewjoin.Prepare(d, q, mats[c.scheme], c.engine, &viewjoin.EvalOptions{
				DiskBased:       true,
				BufferPoolPages: cfg.BufferPoolPages,
				PageSize:        shardPageSize,
				IOLatency:       shardIOLatency,
			})
			if err != nil {
				return fmt.Errorf("%s %s: %w", query.Name, c, err)
			}
			var ms [2]measurement
			var parts int
			for i, k := range []int{1, cfg.Shards} {
				m, np, err := runSharded(cfg, p, k)
				if err != nil {
					return fmt.Errorf("%s %s k=%d: %w", query.Name, c, k, err)
				}
				ms[i] = m
				if k > 1 {
					parts = np
				}
			}
			if ms[0].Matches != ms[1].Matches {
				return fmt.Errorf("%s %s: k=1 found %d matches, k=%d found %d",
					query.Name, c, ms[0].Matches, cfg.Shards, ms[1].Matches)
			}
			fmt.Fprintf(w, "%-6s %-8s %12s %12s %8.2fx %6d %10d\n",
				query.Name, c, fmtDur(ms[0].Time), fmtDur(ms[1].Time),
				float64(ms[0].Time)/float64(ms[1].Time), parts, ms[0].Matches)
		}
	}
	return nil
}

// runSharded measures a run at partition target k: one warm-up, then
// cfg.Repeats timed runs averaged. Unlike the model-based experiments the
// reported time is pure wall clock — the per-miss stall is already real
// elapsed time, so no arithmetic I/O term is added. It also returns the
// partition count the planner actually produced.
func runSharded(cfg Config, p *viewjoin.PreparedQuery, k int) (measurement, int, error) {
	var m measurement
	ctx := context.Background()
	if _, err := p.RunWith(ctx, &viewjoin.RunOptions{Parallelism: k}); err != nil {
		return m, 0, err
	}
	var total time.Duration
	parts := 0
	for i := 0; i < cfg.Repeats; i++ {
		res, err := p.RunWith(ctx, &viewjoin.RunOptions{Parallelism: k})
		if err != nil {
			return m, 0, err
		}
		total += res.Stats.Duration
		m.Stats = res.Stats
		m.Matches = len(res.Matches)
		parts = res.Stats.Partitions
	}
	m.Time = total / time.Duration(cfg.Repeats)
	return m, parts, nil
}
