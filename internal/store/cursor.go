package store

import (
	"encoding/binary"

	"viewjoin/internal/counters"
	"viewjoin/internal/obs"
	"viewjoin/internal/views"
)

// Item is one decoded record: a region label plus whatever pointers the
// record materializes. Absent pointers are NilPointer; for the Element
// scheme every pointer is absent.
type Item struct {
	Start, End, Level int32
	Following         Pointer
	Descendant        Pointer
	Children          [MaxChildren]Pointer
}

// ListCursor is a forward cursor over a ListFile with random access via
// stored pointers. Every record decode is charged as one element scanned,
// and page accesses are charged through the IO buffer pool on the real
// page boundaries of each flat segment — the labels segment and every
// materialized pointer segment are touched per record, like the paper's
// cost model charges a scan over a linked-element file. ListCursor is a
// plain value: copying it yields an independent cursor at the same
// position (the engines' probe idiom).
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
	// last page charged to the pool per segment (labels, then pointer
	// classes), -1 initially.
	lastPage [1 + numPtrSegs]int32
	item     Item
	valid    bool
}

// Open returns a cursor positioned at the first record (invalid for an
// empty list).
func (l *ListFile) Open(io *counters.IO) *ListCursor {
	return l.OpenTraced(io, nil, -1)
}

// OpenTraced is Open with an optional tracer: every record decode emits an
// EvScan and every sequential advance an EvCursorAdvance attributed to the
// given query node. A nil tracer is exactly Open.
func (l *ListFile) OpenTraced(io *counters.IO, tr obs.Tracer, node int) *ListCursor {
	c := &ListCursor{}
	c.Reset(l, io, tr, node)
	return c
}

// Valid reports whether the cursor is positioned on a record.
func (c *ListCursor) Valid() bool { return c.valid }

// Item returns the current record. It must only be called when Valid.
func (c *ListCursor) Item() *Item { return &c.item }

// Ordinal returns the current record's offset in the list. It must only be
// called when Valid.
func (c *ListCursor) Ordinal() int { return int(c.idx) }

// Next advances to the next record in list order; the cursor becomes
// invalid at the end of the list.
func (c *ListCursor) Next() {
	if !c.valid {
		return
	}
	if c.tr != nil {
		c.tr.Event(obs.EvCursorAdvance, int(c.node), 1)
	}
	if c.idx+1 >= c.hi {
		c.valid = false
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
// Bounds are clipped to the list; an empty window yields an invalid
// cursor. This is how partitioned evaluation gives each worker a
// start-range slice of every list without copying any pages.
func (c *ListCursor) ResetRange(l *ListFile, io *counters.IO, tr obs.Tracer, node, lo, hi int) {
	c.f, c.io, c.tr, c.node = l, io, tr, int32(node)
	if lo < 0 {
		lo = 0
	}
	if hi > l.entries {
		hi = l.entries
	}
	c.lo, c.hi = int32(lo), int32(hi)
	c.idx = c.lo
	for i := range c.lastPage {
		c.lastPage[i] = -1
	}
	// Clear the whole record once so child slots beyond the new file's
	// childCount never leak stale pointers from a previous binding (load
	// only rewrites the slots the file materializes).
	c.item = Item{Following: NilPointer, Descendant: NilPointer}
	for i := range c.item.Children {
		c.item.Children[i] = NilPointer
	}
	if c.lo >= c.hi {
		c.valid = false
		return
	}
	c.load(c.lo)
}

// Seek positions the cursor at the record addressed by the pointer and
// charges one pointer dereference. Seeking a nil pointer or one at or
// beyond the cursor's upper bound invalidates the cursor; a pointer below
// the lower bound clamps to the first in-range record (the nearest one the
// window admits — safe because every jump site refuses to move a cursor
// backwards, so a clamped target is never followed past live state).
func (c *ListCursor) Seek(p Pointer) {
	c.io.C.PointerDerefs++
	if p.IsNil() || int32(p) >= c.hi {
		c.valid = false
		return
	}
	if int32(p) < c.lo {
		c.load(c.lo)
		return
	}
	c.load(int32(p))
}

// Position returns the pointer addressing the current record.
func (c *ListCursor) Position() Pointer { return Pointer(c.idx) }

// Clone returns an independent cursor at the same position, sharing the
// same IO accounting.
func (c *ListCursor) Clone() *ListCursor {
	cc := *c
	return &cc
}

// load decodes the record at offset i, touching the page of every present
// segment: the record's fields are striped across the labels segment and
// the materialized pointer segments, so a scan pays each segment's pages —
// this is what makes a linked-element file cost more pages to scan than an
// element file of the same list, as in §V.
func (c *ListCursor) load(i int32) {
	f := c.f
	if pg := f.labels.page(i); c.lastPage[0] != pg {
		c.io.Touch(f.labels.token, pg)
		c.lastPage[0] = pg
	}
	c.io.C.ElementsScanned++
	if c.tr != nil {
		c.tr.Event(obs.EvScan, int(c.node), 1)
	}
	rec := f.labels.rec(i)
	c.item.Start = int32(binary.LittleEndian.Uint32(rec[0:]))
	c.item.End = int32(binary.LittleEndian.Uint32(rec[4:]))
	c.item.Level = int32(binary.LittleEndian.Uint32(rec[8:]))
	c.item.Following = c.loadPtr(segFollowing, i)
	c.item.Descendant = c.loadPtr(segDescendant, i)
	for ci := 0; ci < f.childCount; ci++ {
		c.item.Children[ci] = c.loadPtr(segChild0+ci, i)
	}
	c.idx, c.valid = i, true
}

// loadPtr reads pointer class s of record i, charging the segment page on
// boundary crossings. An absent class reads as NilPointer for free.
func (c *ListCursor) loadPtr(s int, i int32) Pointer {
	seg := &c.f.ptrs[s]
	if !seg.present() {
		return NilPointer
	}
	if pg := seg.page(i); c.lastPage[1+s] != pg {
		c.io.Touch(seg.token, pg)
		c.lastPage[1+s] = pg
	}
	v := int32(binary.LittleEndian.Uint32(seg.rec(i)))
	if v == views.NoPointer {
		return NilPointer
	}
	return Pointer(v)
}
