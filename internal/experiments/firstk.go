package experiments

import (
	"context"
	"fmt"
	"time"

	"viewjoin"
	"viewjoin/internal/workload"
)

// firstkPages are the page bounds the experiment streams; 0 is the full
// materialization baseline.
var firstkPages = []int{0, 1000, 20, 1}

// Firstk measures what the first-k pushdown buys a paging client: on the
// two highest-cardinality §VI twig queries — run at twice the configured
// XMark scale so the top query clears 10^4 matches — it compares full
// materialization against streamed pages of k ∈ {1, 20, 1000}, for both
// sequential (K=1) and range-partitioned (K=cfg.Shards) evaluation, under
// the same simulated device latency as the shards experiment so the
// scan-time saved by stopping early is visible as wall time.
//
// Three quantities are reported per arm:
//
//   - wall: time for the call to return its (page of the) result;
//   - ttfm: client-observed time-to-first-match — for streamed pages the
//     moment the Yield sink receives the first row, for the materialized baseline
//     the full wall time, since no match is visible before the whole
//     result set returns;
//   - peakEnt: the largest enumeration-window entry count held in memory,
//     which stays bounded by the open windows (plus the retained page)
//     instead of growing with the total match count.
//
// Limited arms are verified to return exactly min(k, total) matches.
func Firstk(cfg Config) error {
	cfg = cfg.withDefaults()
	w := cfg.Out
	scale := 2 * cfg.XMarkScale
	fmt.Fprintf(w, "First-k pushdown: XMark x%g twigs, full vs k ∈ {1000, 20, 1}, K=1 and K=%d (%v/page-miss stall, %dB pages)\n",
		scale, cfg.Shards, shardIOLatency, shardPageSize)
	fmt.Fprintf(w, "%-6s %-8s %3s %-7s %12s %12s %9s %9s\n",
		"query", "combo", "K", "page", "wall", "ttfm", "peakEnt", "rows")

	d := viewjoin.GenerateXMark(scale)
	// Q14 and Q13 carry the largest result sets of Fig 5(c); Q14 exceeds
	// 10^4 matches at the doubled scale.
	queries := []workload.Query{
		workload.XMarkTwig()[6], // Q14
		workload.XMarkTwig()[5], // Q13
	}
	combos := []combo{
		{viewjoin.EngineViewJoin, viewjoin.SchemeLEp},
		{viewjoin.EngineTwigStack, viewjoin.SchemeElement},
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
			for _, K := range []int{1, cfg.Shards} {
				total := -1
				for _, k := range firstkPages {
					m, ttfm, err := runPaged(cfg, p, k, K)
					if err != nil {
						return fmt.Errorf("%s %s K=%d k=%d: %w", query.Name, c, K, k, err)
					}
					series := "full"
					if k > 0 {
						series = fmt.Sprintf("k=%d", k)
					}
					if k == 0 {
						total = m.Matches
					} else if want := min(k, total); m.Matches != want {
						return fmt.Errorf("%s %s K=%d k=%d: returned %d matches, want %d",
							query.Name, c, K, k, m.Matches, want)
					}
					cfg.emit(Row{
						Experiment:      "firstk",
						Dataset:         "xmark-x2",
						Query:           query.Name,
						Combo:           c.String(),
						Series:          series,
						Variant:         fmt.Sprintf("K=%d", K),
						TimeNanos:       int64(m.Time),
						FirstMatchNanos: int64(ttfm),
						Matches:         m.Matches,
						Scanned:         m.Stats.ElementsScanned,
						PagesRead:       m.Stats.PagesRead,
						PagesWritten:    m.Stats.PagesWritten,
						PeakMemBytes:    m.Stats.PeakMemoryBytes,
						PeakEntries:     m.Stats.PeakMemoryBytes / 16,
					})
					fmt.Fprintf(w, "%-6s %-8s %3d %-7s %12s %12s %9d %9d\n",
						query.Name, c, K, series, fmtDur(m.Time), fmtDur(ttfm),
						m.Stats.PeakMemoryBytes/16, m.Matches)
				}
			}
		}
	}
	return nil
}

// runPaged measures one (page bound, parallelism) arm: one warm-up, then
// cfg.Repeats timed runs averaged, wall clock only (the per-miss stall is
// real elapsed time, as in runSharded). k == 0 is the materialized
// baseline, whose time-to-first-match is the call's wall time; k > 0 runs
// with a Yield sink and takes its first call as first match.
func runPaged(cfg Config, p *viewjoin.PreparedQuery, k, K int) (measurement, time.Duration, error) {
	var m measurement
	ctx := context.Background()
	ro := viewjoin.RunOptions{Limit: k, Parallelism: max(K, 1)}

	one := func() (*viewjoin.Result, time.Duration, int, error) {
		if k == 0 {
			res, err := p.RunWith(ctx, &ro)
			if err != nil {
				return nil, 0, 0, err
			}
			return res, res.Stats.Duration, len(res.Matches), nil
		}
		var first time.Duration
		rows := 0
		t0 := time.Now()
		ro.Yield = func([]viewjoin.Node) bool {
			if rows == 0 {
				first = time.Since(t0)
			}
			rows++
			return true
		}
		res, err := p.RunWith(ctx, &ro)
		if err != nil {
			return nil, 0, 0, err
		}
		return res, first, rows, nil
	}

	if _, _, _, err := one(); err != nil {
		return m, 0, err
	}
	var total, firstTotal time.Duration
	for i := 0; i < cfg.Repeats; i++ {
		res, first, rows, err := one()
		if err != nil {
			return m, 0, err
		}
		total += res.Stats.Duration
		firstTotal += first
		m.Stats = res.Stats
		m.Matches = rows
	}
	m.Time = total / time.Duration(cfg.Repeats)
	return m, firstTotal / time.Duration(cfg.Repeats), nil
}
