package engine

import (
	"sort"

	"viewjoin/internal/counters"
	"viewjoin/internal/obs"
	"viewjoin/internal/store"
)

// Span is a half-open interval [Lo, Hi) in start-label space. Lists are
// laid out in document order, so a span selects a contiguous slice of
// every list's records via binary seek (store.ListFile.SeekStart).
type Span struct {
	Lo, Hi int32
}

// Empty reports whether the span admits no start label.
func (s Span) Empty() bool { return s.Lo >= s.Hi }

// Contains reports whether the start label falls in the span.
func (s Span) Contains(start int32) bool { return start >= s.Lo && start < s.Hi }

// Restriction narrows one evaluation run to one partition of the document
// for range-partitioned parallel evaluation. Partitions are anchored at
// the bottom of the query's unary spine: the first Spine query nodes (in
// pre-order, a chain where each node has exactly one child) bind ancestors
// of the partition's anchor candidates, and every other node — the anchor
// and its pattern subtree — binds inside Body. Partition planning chooses
// Body so that no anchor candidate's document subtree crosses a partition
// boundary, which makes each partition's matches exactly the sequential
// matches whose anchor binding falls in its Body (see DESIGN.md,
// "Range-partitioned parallel evaluation").
type Restriction struct {
	// Spine is the number of leading pre-order query nodes treated as
	// ancestors of the partition: their candidates are admitted when their
	// region overlaps Body rather than starting inside it.
	Spine int
	// Body bounds the candidates of every non-spine node.
	Body Span
}

// SpanFor returns the start-label range bounding query node qi's cursor.
// Spine nodes bind ancestors of the partition, which start anywhere
// before Body ends; range restriction on starts cannot express the
// matching end-side condition, so Admits is the sharper per-record test.
func (r *Restriction) SpanFor(qi int) Span {
	if qi < r.Spine {
		return Span{0, r.Body.Hi}
	}
	return r.Body
}

// Admits reports whether a candidate with region [start, end) may bind
// query node qi in this partition: spine nodes must contain the anchor
// binding, so their region must overlap Body; every other node must start
// inside Body.
func (r *Restriction) Admits(qi int, start, end int32) bool {
	if qi < r.Spine {
		return start < r.Body.Hi && end > r.Body.Lo
	}
	return r.Body.Contains(start)
}

// ResetCursor rebinds c over l for query node qi under the optional
// restriction: nil opens the whole list, otherwise the list is narrowed
// to the records whose start labels the node's span admits.
func ResetCursor(c *store.ListCursor, l *store.ListFile, io *counters.IO, tr obs.Tracer, qi int, r *Restriction) {
	if r == nil {
		c.Reset(l, io, tr, qi)
		return
	}
	sp := r.SpanFor(qi)
	c.ResetRange(l, io, tr, qi, l.SeekStart(sp.Lo), l.SeekStart(sp.Hi))
}

// CountInSpan returns how many of l's records have start labels in sp —
// the record slice a restricted cursor over l would see.
func CountInSpan(l *store.ListFile, sp Span) int {
	return l.SeekStart(sp.Hi) - l.SeekStart(sp.Lo)
}

// Lists is the per-query-node list binding of a list-file engine's plan
// (ViewJoin, TwigStack, PathStack), embedded there so the plan answers the
// partition planner's two questions: node qi's candidates are the records
// of its list, and a start range weighs the payload bytes of every list's
// slice — the quantity the page-cost model charges for scanning it.
type Lists []*store.ListFile

// AnchorSpans returns the document regions of query node qi's candidates.
func (ls Lists) AnchorSpans(qi int) []Span {
	if qi >= len(ls) || ls[qi] == nil {
		return nil
	}
	l := ls[qi]
	out := make([]Span, l.Entries())
	for i := range out {
		lb := l.LabelAt(i)
		out[i] = Span{Lo: lb.Start, Hi: lb.End}
	}
	return out
}

// WeightIn estimates the bytes a run restricted to starts in [lo, hi)
// scans.
func (ls Lists) WeightIn(lo, hi int32) int64 {
	var w int64
	for _, l := range ls {
		if l == nil || l.Entries() == 0 {
			continue
		}
		rec := l.PayloadBytes() / int64(l.Entries())
		w += int64(CountInSpan(l, Span{Lo: lo, Hi: hi})) * rec
	}
	return w
}

// MergeSpans sorts the given candidate regions by start and merges every
// overlapping or nested pair, yielding the disjoint ascending "blobs" a
// partition planner may cut between: a document subtree from one blob
// never extends into another, so any grouping of consecutive blobs is a
// valid partition body. Empty spans are dropped; the input is not kept.
func MergeSpans(spans []Span) []Span {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Lo < spans[j].Lo })
	out := spans[:0]
	for _, s := range spans {
		if s.Empty() {
			continue
		}
		if n := len(out); n > 0 && s.Lo < out[n-1].Hi {
			if s.Hi > out[n-1].Hi {
				out[n-1].Hi = s.Hi
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// CoalesceSpans greedily merges the given document-ordered disjoint spans
// into at most k chunks balanced by the supplied weight function
// (estimated pages a partition would touch, or any non-negative proxy).
// Every chunk merges consecutive spans, so chunks stay document-ordered
// and disjoint. Fewer spans than k yields one chunk per span; a uniformly
// zero weighting falls back to balancing span counts. CoalesceSpans never
// returns more than min(k, len(spans)) chunks and never errors.
func CoalesceSpans(spans []Span, weight func(Span) int64, k int) []Span {
	n := len(spans)
	if n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	if k <= 1 {
		return []Span{{spans[0].Lo, spans[n-1].Hi}}
	}
	ws := make([]int64, n)
	var total int64
	for i, s := range spans {
		if w := weight(s); w > 0 {
			ws[i] = w
		}
		total += ws[i]
	}
	if total == 0 {
		for i := range ws {
			ws[i] = 1
		}
		total = int64(n)
	}
	out := make([]Span, 0, k)
	i, remaining := 0, total
	for c := k; i < n; c-- {
		if c == 1 {
			out = append(out, Span{spans[i].Lo, spans[n-1].Hi})
			break
		}
		// Fill this chunk to its fair share of the remaining weight, but
		// leave at least one span for each chunk still to come.
		target := remaining / int64(c)
		j, acc := i, int64(0)
		for j < n-(c-1) {
			acc += ws[j]
			j++
			if acc >= target && acc > 0 {
				break
			}
		}
		if j == i {
			j = i + 1
		}
		out = append(out, Span{spans[i].Lo, spans[j-1].Hi})
		remaining -= acc
		i = j
	}
	return out
}
