// Package experiments regenerates every table and figure of the paper's
// experimental evaluation (§VI) on the reproduction's datasets and
// simulated paged store. Each experiment prints the same rows/series the
// paper reports: absolute numbers differ from the 2010 testbed, but the
// shapes — who wins, by roughly what factor, where the crossovers fall —
// are the reproduction targets (see EXPERIMENTS.md).
//
// Every time printed here comes from one sampler (measure): a sample is one
// Evaluate call's Stats.Duration, preparation included, which is the
// paper's total processing time, and a cell reports the median and
// quartiles of its samples beside the run's exact counters.
package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"viewjoin"
	"viewjoin/internal/tpq"
)

// Config parameterizes an experiment run.
type Config struct {
	// XMarkScale is the XMark-analog scale factor (default 1.0, the
	// "standard 113MB document" analog at laptop size, ~100k elements).
	XMarkScale float64
	// NasaDatasets sizes the Nasa-analog document (default 4000, the 23MB
	// Nasa analog, ~110k elements).
	NasaDatasets int
	// Repeats is the number of timed samples per cell, taken after one
	// warm-up run (default 21: odd, so the median is a real sample).
	Repeats int
	// Out receives the experiment's table; defaults to io.Discard.
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if c.XMarkScale <= 0 {
		c.XMarkScale = 1.0
	}
	if c.NasaDatasets <= 0 {
		c.NasaDatasets = 4000
	}
	if c.Repeats <= 0 {
		c.Repeats = 21
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// Experiment is one reproducible unit: a table or figure of the paper.
type Experiment struct {
	Name  string
	Title string
	Run   func(cfg Config) error
	// grids is the declaration Run executes, for the grid experiments.
	grids []grid
}

// gridExperiment is an experiment that runs its grids in order.
func gridExperiment(name, title string, grids ...grid) Experiment {
	return Experiment{Name: name, Title: title, grids: grids, Run: func(cfg Config) error {
		cfg = cfg.withDefaults()
		for i, g := range grids {
			if i > 0 {
				fmt.Fprintln(cfg.Out)
			}
			if _, err := g.run(cfg); err != nil {
				return err
			}
		}
		return nil
	}}
}

// All returns the experiments in paper order.
func All() []Experiment {
	return []Experiment{
		gridExperiment("motivation", "§I/§VI-A obs.2 — IJ vs PathStack, tuple vs element schemes", motivation),
		gridExperiment("fig5a", "Fig 5(a) — path queries on XMark, 7 scheme/algorithm combos", fig5a),
		gridExperiment("fig5b", "Fig 5(b) — path queries on Nasa, 7 combos", fig5b),
		gridExperiment("fig5c", "Fig 5(c) — twig queries on XMark, 6 combos", fig5c),
		gridExperiment("fig5d", "Fig 5(d) — twig queries on Nasa, 6 combos", fig5d),
		gridExperiment("fig6a", "Fig 6(a) — interleaving conditions, path query Np with PV1-PV4", fig6a),
		gridExperiment("fig6b", "Fig 6(b) — interleaving conditions, twig query Nt with TV1-TV4", fig6b),
		{Name: "table2", Title: "Table II / Example 5.1 — cost-based view selection", Run: Table2},
		{Name: "table4", Title: "Table IV — size and #pointers of views across schemes", Run: Table4},
		{Name: "fig7", Title: "Fig 7 — scalability of ViewJoin on growing XMark documents", Run: Fig7},
		gridExperiment("table5", "Table V — memory-based vs disk-based output approaches", table5),
		{Name: "ablation", Title: "Reproduction ablations — LEp threshold, page size", Run: Ablation},
		gridExperiment("noviews", "Views vs raw element streams — the [22] comparison the paper builds on",
			noViewsPaths, noViewsTwigs),
	}
}

// ByName returns the named experiment.
func ByName(name string) (Experiment, error) {
	for _, e := range All() {
		if e.Name == name {
			return e, nil
		}
	}
	var names []string
	for _, e := range All() {
		names = append(names, e.Name)
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have: %s)",
		name, strings.Join(names, ", "))
}

// sample is one evaluation's measurement: its timings, sorted, and the
// Stats (counters, match count included) of its warm-up run.
type sample struct {
	times []time.Duration
	stats viewjoin.Stats
}

// measure is the sampler behind every time the package prints. It runs
// each evaluation once to warm up, then takes repeats samples of each,
// round-robin, so that a slow spell of the machine lands on all of them
// alike. A sample is the run's Stats.Duration.
func measure(repeats int, runs ...func() (*viewjoin.Result, error)) ([]sample, error) {
	out := make([]sample, len(runs))
	for i, run := range runs {
		res, err := run()
		if err != nil {
			return nil, err
		}
		out[i] = sample{stats: res.Stats}
	}
	for r := 0; r < repeats; r++ {
		for i, run := range runs {
			res, err := run()
			if err != nil {
				return nil, err
			}
			out[i].times = append(out[i].times, res.Stats.Duration)
		}
	}
	for i := range out {
		slices.Sort(out[i].times)
	}
	return out, nil
}

// quartile returns the k-th quartile of the samples (k = 2 is the median),
// always one of the samples themselves.
func (s sample) quartile(k int) time.Duration {
	return s.times[(len(s.times)-1)*k/4]
}

// String prints the samples as median [Q1, Q3].
func (s sample) String() string {
	return fmt.Sprintf("%s [%s, %s]", fmtDur(s.quartile(2)), fmtDur(s.quartile(1)), fmtDur(s.quartile(3)))
}

// materialize builds a catalogue entry's view set once per scheme.
func materialize(d *viewjoin.Document, views []*tpq.Pattern, schemes ...viewjoin.StorageScheme) (map[viewjoin.StorageScheme][]*viewjoin.MaterializedView, error) {
	vs := make([]*viewjoin.Query, len(views))
	for i, p := range views {
		q, err := viewjoin.ParseQuery(p.String())
		if err != nil {
			return nil, err
		}
		vs[i] = q
	}
	out := make(map[viewjoin.StorageScheme][]*viewjoin.MaterializedView, len(schemes))
	for _, s := range schemes {
		if out[s] != nil {
			continue
		}
		mv, err := d.MaterializeViews(vs, s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s, err)
		}
		out[s] = mv
	}
	return out, nil
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

func fmtMB(bytes int64) string {
	return fmt.Sprintf("%.2fMB", float64(bytes)/(1<<20))
}
