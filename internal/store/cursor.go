package store

import (
	"encoding/binary"
	"math"

	"viewjoin/internal/counters"
	"viewjoin/internal/obs"
)

// ListCursor is a forward cursor over a ListFile with random access via
// stored pointers. Every record it lands on is charged as one element
// scanned, and page accesses are charged through the IO buffer pool on the
// real page boundaries of each flat segment — the labels segment and every
// materialized pointer segment, like the paper's cost model charges a scan
// over a linked-element file. The region label is decoded on landing;
// pointers are read where an engine asks for one. ListCursor is a plain
// value: copying it yields an independent cursor at the same position (the
// engines' probe idiom).
//
// An exhausted cursor reads Start() == End() == math.MaxInt32, so merge
// loops compare labels without asking Valid first.
type ListCursor struct {
	f    *ListFile
	io   *counters.IO
	tr   obs.Tracer // nil when tracing is off
	node int32      // query node for event attribution (-1 untraced)
	idx  int32
	// lo/hi bound the visible record offsets to [lo, hi): Reset opens the
	// whole list (lo=0, hi=entries); ResetRange narrows the window for
	// partitioned evaluation. Next stops at hi; Seek treats hi as the end
	// of the list and clamps targets below lo up to lo.
	lo, hi int32
	// The label of record idx; Start == End == math.MaxInt32 is the
	// exhausted state, in which idx stays on the record landed on last.
	label Label
	// The pages last charged to the pool, as windows of record offsets: one
	// for the labels segment, one for the pointer segments, which share a
	// geometry and so change page together.
	labels, ptrs pageWindow
}

// pageWindow is the run of records [lo, lo+n) stored on one page, whose
// first record sits at byte offset base of its segment. A record inside
// the window is addressed without dividing by the page geometry, and its
// page is already charged.
type pageWindow struct {
	lo, n int32
	base  int
}

// slide moves the window to the page of record i, with perPage records to
// a page of pageSize bytes, and returns the page number.
func (w *pageWindow) slide(i int32, perPage, pageSize int) int32 {
	pg := i / int32(perPage)
	*w = pageWindow{lo: pg * int32(perPage), n: int32(perPage), base: int(pg) * pageSize}
	return pg
}

// Open returns a cursor positioned at the first record (exhausted for an
// empty list).
func (l *ListFile) Open(io *counters.IO) *ListCursor {
	c := &ListCursor{}
	c.Reset(l, io, nil, -1)
	return c
}

// Valid reports whether the cursor is positioned on a record.
func (c *ListCursor) Valid() bool { return c.label.Start != math.MaxInt32 }

// Start returns the current record's start label, math.MaxInt32 when the
// cursor is exhausted.
func (c *ListCursor) Start() int32 { return c.label.Start }

// End returns the current record's end label, math.MaxInt32 when the
// cursor is exhausted.
func (c *ListCursor) End() int32 { return c.label.End }

// Label returns the current record's region label. It must only be called
// when Valid.
func (c *ListCursor) Label() Label { return c.label }

// Position returns the pointer addressing the current record — its offset
// in the list — or the one landed on last when the cursor is exhausted.
func (c *ListCursor) Position() Pointer { return Pointer(c.idx) }

// Following returns the current record's following pointer, NilPointer
// when none is materialized. Like Descendant and Child it reads the one
// pointer from its segment — the segment's page was charged when the
// cursor landed — and must only be called when Valid.
func (c *ListCursor) Following() Pointer { return c.pointer(segFollowing) }

// Descendant returns the current record's descendant pointer.
func (c *ListCursor) Descendant() Pointer { return c.pointer(segDescendant) }

// Child returns the current record's child pointer for the given child
// slot of the view node.
func (c *ListCursor) Child(slot int) Pointer { return c.pointer(segChild0 + slot) }

func (c *ListCursor) pointer(class int) Pointer {
	seg := &c.f.ptrs[class]
	if !seg.present() {
		return NilPointer
	}
	off := c.ptrs.base + int(c.idx-c.ptrs.lo)*ptrBytes
	return Pointer(binary.LittleEndian.Uint32(seg.data[off:]))
}

// Next advances to the next record in list order; the cursor becomes
// exhausted at the end of the list.
func (c *ListCursor) Next() {
	if !c.Valid() {
		return
	}
	if c.tr != nil {
		c.tr.Event(obs.EvCursorAdvance, int(c.node), 1)
	}
	if c.idx+1 >= c.hi {
		c.exhaust()
		return
	}
	c.load(c.idx + 1)
}

// Reset repositions c at the first record of l in place, rebinding the IO
// accounting and tracer without allocating: the prepared-plan evaluators
// keep cursor storage across runs and Reset it per run. A nil tracer
// disables event emission exactly like Open.
func (c *ListCursor) Reset(l *ListFile, io *counters.IO, tr obs.Tracer, node int) {
	c.ResetRange(l, io, tr, node, 0, l.entries)
}

// ResetRange is Reset restricted to the record offsets [lo, hi): the
// cursor starts at lo, Next exhausts at hi, and Seek clamps targets below
// lo up to lo while treating targets at or beyond hi as past-the-end.
// Bounds are clipped to the list; an empty window yields an exhausted
// cursor. This is how partitioned evaluation gives each worker a
// start-range slice of every list without copying any pages.
func (c *ListCursor) ResetRange(l *ListFile, io *counters.IO, tr obs.Tracer, node, lo, hi int) {
	lo, hi = max(lo, 0), min(hi, l.entries)
	*c = ListCursor{f: l, io: io, tr: tr, node: int32(node), idx: int32(lo), lo: int32(lo), hi: int32(hi)}
	if lo >= hi {
		c.exhaust()
		return
	}
	c.load(c.lo)
}

// Seek positions the cursor at the record addressed by the pointer and
// charges one pointer dereference. Seeking a nil pointer or one at or
// beyond the cursor's upper bound exhausts the cursor; a pointer below
// the lower bound clamps to the first in-range record (the nearest one the
// window admits — safe because every jump site refuses to move a cursor
// backwards, so a clamped target is never followed past live state).
func (c *ListCursor) Seek(p Pointer) {
	c.io.C.PointerDerefs++
	i := max(int32(p), c.lo)
	if p.IsNil() || i >= c.hi {
		c.exhaust()
		return
	}
	c.load(i)
}

func (c *ListCursor) exhaust() { c.label.Start, c.label.End = math.MaxInt32, math.MaxInt32 }

// load lands on record i < hi: it charges the labels page, the scanned
// element, then the page of every present pointer segment (following,
// descendant, child slots ascending) — the record's fields are striped
// across the segments, so a scan pays each segment's pages, which is what
// makes a linked-element file cost more pages to scan than an element file
// of the same list, as in §V. A page is charged when the cursor leaves the
// window of the page charged last, so a run of records on one page touches
// the pool once.
func (c *ListCursor) load(i int32) {
	f := c.f
	if uint32(i-c.labels.lo) >= uint32(c.labels.n) {
		c.io.Touch(f.labels.token, c.labels.slide(i, f.labels.perPage, f.pageSize))
	}
	c.io.C.ElementsScanned++
	if c.tr != nil {
		c.tr.Event(obs.EvScan, int(c.node), 1)
	}
	c.label = getLabel(f.labels.data[c.labels.base+int(i-c.labels.lo)*labelBytes:])
	if uint32(i-c.ptrs.lo) >= uint32(c.ptrs.n) {
		pg := c.ptrs.slide(i, f.pageSize/ptrBytes, f.pageSize)
		for s := range f.ptrs {
			if f.ptrs[s].present() {
				c.io.Touch(f.ptrs[s].token, pg)
			}
		}
	}
	c.idx = i
}
