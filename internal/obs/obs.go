// Package obs is the observability layer of the reproduction: span-style
// phase timing, collected by a Recorder whose nil value
// costs nothing on the hot path, plus the per-plan Aggregate the serving
// layer folds finished runs into.
//
// The paper's evaluation (§VI) argues about where time goes as well as
// totals. The cost terms themselves — entries scanned, pointers followed,
// jumps taken and refused, pages read — are the run's counters
// (internal/counters), which every run keeps at the cost of an increment.
// A Recorder adds only what counters cannot say: the self time of each
// phase (segment, bind, evaluate, enumerate, output) and the plan. Renderers pair them with the counters in a human
// EXPLAIN-style report or a stable JSON document (see report.go); the
// store cursors and the join loops never see a Recorder.
//
// Tracing is strictly opt-in. A nil *Recorder is an untraced run: its
// hooks return at once and inline, so call sites need no guard, and an
// untraced evaluation makes no calls and no allocations for observability
// (the no-op benchmark in the root package pins this).
package obs

import (
	"math"
	"math/bits"
	"time"
)

// Phase identifies one span of an evaluation run. Phases nest: beginning a
// phase while another is open attributes subsequent time to the inner
// phase until it ends (exclusive, self-time accounting).
type Phase uint8

const (
	// PhaseParse covers query and view parsing (CLI-side).
	PhaseParse Phase = iota
	// PhaseSegment covers view-segmented query construction (vsq.Build)
	// and, for InterJoin, view-position mapping.
	PhaseSegment
	// PhaseBind covers binding query nodes to view list files.
	PhaseBind
	// PhaseEvaluate covers the engine main loop (cursor joins, skipping).
	PhaseEvaluate
	// PhaseEnumerate covers window enumeration into match tuples.
	PhaseEnumerate
	// PhaseOutput covers converting matches into the public result rows.
	PhaseOutput

	numPhases
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseParse:
		return "parse"
	case PhaseSegment:
		return "segment"
	case PhaseBind:
		return "bind"
	case PhaseEvaluate:
		return "evaluate"
	case PhaseEnumerate:
		return "enumerate"
	case PhaseOutput:
		return "output"
	default:
		return "unknown"
	}
}

// Phases lists every phase in execution order.
func Phases() []Phase {
	return []Phase{PhaseParse, PhaseSegment, PhaseBind, PhaseEvaluate, PhaseEnumerate, PhaseOutput}
}

// HistogramBuckets is the number of power-of-two buckets in a Histogram:
// bucket 0 holds value 0, bucket i (i ≥ 1) holds values in [2^(i-1), 2^i).
// Values of 2^31 and above share the last bucket.
const HistogramBuckets = 32

// Histogram is a power-of-two distribution summary of non-negative values.
type Histogram struct {
	Count [HistogramBuckets]int64
	N     int64 // total observations
	Sum   int64 // sum of observed values
	Max   int64
}

// Add records one observation.
func (h *Histogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	h.Count[bucketOf(v)]++
	h.N++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

func bucketOf(v int64) int {
	b := bits.Len64(uint64(v)) // 0 -> 0, 1 -> 1, 2..3 -> 2, 4..7 -> 3, ...
	if b >= HistogramBuckets {
		b = HistogramBuckets - 1
	}
	return b
}

// BucketUpper returns the inclusive upper bound of bucket i.
func BucketUpper(i int) int64 {
	if i == 0 {
		return 0
	}
	return 1<<uint(i) - 1
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) of the observed values
// from the log-scaled buckets: the bucket holding the ceil(q·N)-th smallest
// observation is located and the value interpolated linearly by rank within
// the bucket's [lower, upper] range. The estimate is exact for bucket 0
// (value 0) and within one power of two otherwise; the top bucket — and any
// bucket whose range exceeds the observed maximum — is clamped to Max, so a
// saturated histogram never reports a value beyond what was seen. An empty
// histogram reports 0; q ≥ 1 reports Max.
func (h *Histogram) Quantile(q float64) int64 {
	if h.N == 0 {
		return 0
	}
	if q >= 1 {
		return h.Max
	}
	if q < 0 {
		q = 0
	}
	rank := int64(math.Ceil(q * float64(h.N)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < HistogramBuckets; i++ {
		c := h.Count[i]
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo := int64(0)
			if i > 0 {
				lo = BucketUpper(i-1) + 1
			}
			hi := BucketUpper(i)
			if hi > h.Max || i == HistogramBuckets-1 {
				// Either the observed maximum lands inside this bucket,
				// or this is the top bucket, which absorbs every value
				// beyond its nominal range — in both cases Max is the
				// true upper bound.
				hi = h.Max
			}
			if hi < lo {
				return hi
			}
			frac := float64(rank-cum) / float64(c)
			return lo + int64(frac*float64(hi-lo))
		}
		cum += c
	}
	return h.Max
}

// Recorder accumulates the phases of one evaluation and its Plan for
// rendering. Everything else a traced run
// reports — elements scanned, pointers followed, jumps, pages — comes from
// the run's counters, which every run keeps whether traced or not. The
// store cursors and the join loops never see a Recorder; below the
// executor only preparation and the enumeration stage open spans. A nil
// *Recorder is an untraced run: BeginPhase, EndPhase and Plan are
// no-ops on a nil receiver, and each is small enough to inline, so an
// untraced call site costs one predictable branch and no call. The zero
// value is ready to use.
//
// A Recorder is not safe for concurrent use: one evaluation is
// single-threaded, and each evaluation should get its own Recorder.
type Recorder struct {
	// phases holds exclusive (self) time per phase.
	phases [numPhases]time.Duration
	plan   *Plan
	stack  []phaseFrame
}

type phaseFrame struct {
	phase Phase
	start time.Time
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// BeginPhase pauses the currently open phase (if any) and starts
// attributing time to p. Phases nest; time is attributed exclusively.
func (r *Recorder) BeginPhase(p Phase) {
	if r != nil {
		r.beginPhase(p)
	}
}

func (r *Recorder) beginPhase(p Phase) {
	now := time.Now()
	if n := len(r.stack); n > 0 {
		top := &r.stack[n-1]
		r.phases[top.phase] += now.Sub(top.start)
		top.start = now
	}
	r.stack = append(r.stack, phaseFrame{phase: p, start: now})
}

// EndPhase closes the innermost open span and resumes the enclosing
// phase. Mismatched ends close the top span.
func (r *Recorder) EndPhase(p Phase) {
	if r != nil {
		r.endPhase()
	}
}

func (r *Recorder) endPhase() {
	n := len(r.stack)
	if n == 0 {
		return
	}
	now := time.Now()
	top := r.stack[n-1]
	if int(top.phase) < int(numPhases) {
		r.phases[top.phase] += now.Sub(top.start)
	}
	r.stack = r.stack[:n-1]
	if n > 1 {
		r.stack[n-2].start = now
	}
}

// Plan retains the evaluation plan (view-segmented query, bindings) for
// rendering. It is called at most once per evaluation.
func (r *Recorder) Plan(p *Plan) {
	if r != nil {
		r.plan = p
	}
}
