// Package obs is the observability layer of the reproduction: span-style
// phase timing, engine-internal event streams, and per-query-node cost
// breakdowns, collected by a Recorder whose nil value costs nothing on the
// hot path.
//
// The paper's evaluation (§VI) argues about *where* time goes — cursor
// advances, pointer jumps, page reads — not just totals. This package
// makes those claims observable: every engine and the store cursors report
// their micro-operations to a Recorder, which aggregates per-phase
// durations, event totals and distribution summaries (jump skip-length
// histogram, per-node scans). Renderers turn a Recorder and the run's
// counters into a human EXPLAIN-style report or a stable JSON document
// (see report.go).
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

// Event identifies one engine-internal micro-operation.
type Event uint8

const (
	// EvScan: one record decoded from a list or tuple file (node-attributed
	// twin of counters.ElementsScanned).
	EvScan Event = iota
	// EvCursorAdvance: one sequential cursor advance (Next).
	EvCursorAdvance
	// EvJumpTaken: a materialized pointer jump was followed; the event
	// magnitude is the skipped distance in pages (≥ 0).
	EvJumpTaken
	// EvJumpRefused: a jump was available but a guard (safe-jump probe,
	// open-region cover) or a stale pointer refused it.
	EvJumpRefused
	// EvStackPush: a candidate was accepted onto an open-region stack (or
	// admitted to the window DAG).
	EvStackPush
	// EvStackPop: an open region was popped (ended before the next
	// candidate, or the window was reset).
	EvStackPop
	// EvPartition: one partition of a range-partitioned parallel run
	// completed; the event magnitude is the partition's wall time in
	// nanoseconds (each event counts as one partition, and the duration
	// feeds the partition-span histogram).
	EvPartition

	numEvents
)

// String names the event.
func (e Event) String() string {
	switch e {
	case EvScan:
		return "scan"
	case EvCursorAdvance:
		return "cursorAdvance"
	case EvJumpTaken:
		return "jumpTaken"
	case EvJumpRefused:
		return "jumpRefused"
	case EvStackPush:
		return "stackPush"
	case EvStackPop:
		return "stackPop"
	case EvPartition:
		return "partition"
	default:
		return "unknown"
	}
}

// Events lists every event kind.
func Events() []Event {
	return []Event{EvScan, EvCursorAdvance, EvJumpTaken, EvJumpRefused,
		EvStackPush, EvStackPop, EvPartition}
}

// NodeMetrics is the per-query-node cost breakdown.
type NodeMetrics struct {
	// Scanned counts records decoded for this node's list.
	Scanned int64 `json:"scanned"`
	// Advances counts sequential cursor advances.
	Advances int64 `json:"advances"`
	// JumpsTaken / JumpsRefused count pointer jumps followed and refused.
	JumpsTaken   int64 `json:"jumpsTaken"`
	JumpsRefused int64 `json:"jumpsRefused"`
	// Pushes / Pops count open-region stack operations.
	Pushes int64 `json:"pushes"`
	Pops   int64 `json:"pops"`
}

// HistogramBuckets is the number of power-of-two buckets in a Histogram:
// bucket 0 holds value 0, bucket i (i ≥ 1) holds values in [2^(i-1), 2^i).
// 32 buckets cover every int32-addressable distance.
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

// Recorder accumulates the phases and events of one evaluation and retains
// its Plan for rendering. A nil *Recorder is an untraced run: BeginPhase,
// EndPhase, Event and Plan are no-ops on a nil receiver, and each is small
// enough to inline, so an untraced call site costs one predictable branch
// and no call. The zero value is ready to use.
//
// A Recorder is not safe for concurrent use: one evaluation is
// single-threaded, and each evaluation should get its own Recorder.
type Recorder struct {
	// phases holds exclusive (self) time per phase.
	phases [numPhases]time.Duration
	// events holds total occurrences per event kind.
	events [numEvents]int64
	// nodes holds the per-query-node breakdown, indexed by query node.
	nodes []NodeMetrics
	// jumpSkipPages summarizes the page distance skipped by taken jumps.
	jumpSkipPages Histogram
	// partitionNanos summarizes the wall time of the partitions of a
	// range-partitioned parallel run (empty for sequential runs).
	partitionNanos Histogram
	plan           *Plan
	stack          []phaseFrame
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

// Event records one micro-operation. node is the query-node index the
// event is attributed to, or -1 when unattributed. n is the event
// magnitude: a count for most events, the skipped page distance for
// EvJumpTaken and the wall time for EvPartition (each of which counts as
// one occurrence).
func (r *Recorder) Event(e Event, node int, n int64) {
	if r != nil {
		r.event(e, node, n)
	}
}

func (r *Recorder) event(e Event, node int, n int64) {
	if e >= numEvents {
		return
	}
	count := n
	if e == EvJumpTaken {
		count = 1
		r.jumpSkipPages.Add(n)
	}
	if e == EvPartition {
		count = 1
		r.partitionNanos.Add(n)
	}
	r.events[e] += count
	if node < 0 {
		return
	}
	if node >= len(r.nodes) {
		grown := make([]NodeMetrics, node+1)
		copy(grown, r.nodes)
		r.nodes = grown
	}
	nm := &r.nodes[node]
	switch e {
	case EvScan:
		nm.Scanned += n
	case EvCursorAdvance:
		nm.Advances += n
	case EvJumpTaken:
		nm.JumpsTaken++
	case EvJumpRefused:
		nm.JumpsRefused += n
	case EvStackPush:
		nm.Pushes += n
	case EvStackPop:
		nm.Pops += n
	}
}

// Plan retains the evaluation plan (view-segmented query, bindings) for
// rendering. It is called at most once per evaluation.
func (r *Recorder) Plan(p *Plan) {
	if r != nil {
		r.plan = p
	}
}
