package obs

import (
	"sync"
	"time"

	"viewjoin/internal/counters"
)

// Aggregate folds per-run observations — a run's counters.Counters plus its
// duration, both read off Result.Stats — into running totals: run and error
// counts, summed deterministic counters, and a latency histogram
// (microseconds) that yields p50/p95/p99/p999 via Histogram.Quantile.
//
// This is the per-plan feedback record the serving layer keys off every
// plan-cache entry: observed counters, jump-refused rate and latency
// quantiles are exactly the inputs a feedback-driven planner needs
// to re-rank view and engine choice (ROADMAP item 3). Unlike Recorder,
// an Aggregate is safe for concurrent use: many requests running the same
// cached plan fold their outcomes into one Aggregate.
type Aggregate struct {
	mu        sync.Mutex
	runs      int64
	errors    int64
	c         counters.Counters
	latencyUS Histogram
}

// AddRun folds one completed run: its deterministic counters and wall
// duration. Everything here comes from Result.Stats, so it costs nothing on
// the evaluation hot path.
func (a *Aggregate) AddRun(c counters.Counters, d time.Duration) {
	a.mu.Lock()
	a.runs++
	a.c.Add(c)
	a.latencyUS.Add(d.Microseconds())
	a.mu.Unlock()
}

// AddError counts one failed run (timeout, cancellation, or evaluation
// error). Failed runs contribute no counters or latency — an aborted
// evaluation's partial costs are not comparable to a completed one's.
func (a *Aggregate) AddError() {
	a.mu.Lock()
	a.errors++
	a.mu.Unlock()
}

// Snapshot returns a consistent copy of the running totals.
func (a *Aggregate) Snapshot() AggregateSnapshot {
	a.mu.Lock()
	s := AggregateSnapshot{
		Runs:      a.runs,
		Errors:    a.errors,
		Counters:  a.c,
		LatencyUS: a.latencyUS,
	}
	a.mu.Unlock()
	return s
}

// AggregateSnapshot is a point-in-time copy of an Aggregate, safe to read
// without synchronization.
type AggregateSnapshot struct {
	Runs, Errors int64
	Counters     counters.Counters
	LatencyUS    Histogram
}

// JumpRefusedRate is the fraction of pointer-jump opportunities the
// engine refused (safe-jump probe, open-region cover, stale pointers)
// across all folded runs, or 0 when no jump was attempted. A high rate
// means the plan's materialized pointers are not paying off — the §V cost
// model's λ-weighted jump benefit is overestimated for this plan.
func (s *AggregateSnapshot) JumpRefusedRate() float64 {
	total := s.Counters.JumpsTaken + s.Counters.JumpsRefused
	if total == 0 {
		return 0
	}
	return float64(s.Counters.JumpsRefused) / float64(total)
}
