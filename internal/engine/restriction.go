package engine

import (
	"viewjoin/internal/counters"
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

// Restriction narrows one evaluation run to the part of the document a
// cursor run still has to read. The first Spine query nodes (in pre-order,
// a chain where each node has exactly one child) are the resume prefix's
// levels: they bind ancestors of the cursor's position, so they are
// admitted when their region overlaps Body; every other node binds inside
// Body, which starts at the cursor's label on the level below the prefix
// (see DESIGN.md, "Resume is a restricted run").
type Restriction struct {
	// Spine is the number of leading pre-order query nodes that bind
	// ancestors of Body: their candidates are admitted when their region
	// overlaps Body rather than starting inside it.
	Spine int
	// Body bounds the candidates of every non-spine node.
	Body Span
}

// SpanFor returns the start-label range bounding query node qi's cursor.
// Spine nodes bind ancestors of Body, which start anywhere before Body
// ends; range restriction on starts cannot express the matching end-side
// condition, so Admits is the sharper per-record test.
func (r *Restriction) SpanFor(qi int) Span {
	if qi < r.Spine {
		return Span{0, r.Body.Hi}
	}
	return r.Body
}

// Admits reports whether a candidate with region [start, end) may bind
// query node qi in the restricted run: spine nodes must contain a binding
// inside Body, so their region must overlap it; every other node must
// start inside Body.
func (r *Restriction) Admits(qi int, start, end int32) bool {
	if qi < r.Spine {
		return start < r.Body.Hi && end > r.Body.Lo
	}
	return r.Body.Contains(start)
}

// ResetCursor rebinds c over l for query node qi under the optional
// restriction: nil opens the whole list, otherwise the list is narrowed
// to the records whose start labels the node's span admits.
func ResetCursor(c *store.ListCursor, l *store.ListFile, io *counters.IO, qi int, r *Restriction) {
	if r == nil {
		c.Reset(l, io)
		return
	}
	sp := r.SpanFor(qi)
	c.ResetRange(l, io, l.SeekStart(sp.Lo), l.SeekStart(sp.Hi))
}
