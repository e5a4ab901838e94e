package store

import (
	"encoding/binary"
	"math"

	"viewjoin/internal/counters"
)

// ListCursor is a forward cursor over a ListFile with random access via
// stored pointers. Every record it lands on is charged as one element
// scanned, and page accesses are charged as reads to the IO on the page
// boundaries of the list's flat image — the labels segment and every
// materialized pointer segment, like the paper's cost model charges a scan
// over a linked-element file, whether the list is built or a piece table.
// The region label is decoded on landing; pointers are read where an
// engine asks for one. ListCursor is a plain value: copying it yields an
// independent cursor at the same position (the engines' probe idiom).
//
// An exhausted cursor reads Start() == End() == math.MaxInt32, so merge
// loops compare labels without asking Valid first.
type ListCursor struct {
	f   *ListFile
	io  *counters.IO
	idx int32
	// lo/hi bound the visible record offsets to [lo, hi): Reset opens the
	// whole list (lo=0, hi=entries); ResetRange narrows the window for
	// partitioned evaluation. Next stops at hi; Seek treats hi as the end
	// of the list and clamps targets below lo up to lo.
	lo, hi int32
	// The label of record idx; Start == End == math.MaxInt32 is the
	// exhausted state, in which idx stays on the record landed on last.
	label Label
	// The records readable without a lookup: one window for the labels, one
	// for the pointer classes, which share a geometry and so change page
	// together.
	labels labelWindow
	ptrs   ptrWindow
}

// A window is the run of records [lo, lo+n) that lie on one page of the
// list's image, in one piece, and back to back in that piece's source — a
// whole page of a built list. A record inside it is addressed without
// dividing by the page geometry or searching the pieces, and its page is
// already charged; page is the page charged last (-1 before the first).
type labelWindow struct {
	lo, n, page int32
	delta       int32  // the piece's label delta
	data        []byte // the labels of records lo onward
}

type ptrWindow struct {
	lo, n, page int32
	stale       bool // pointers read from src need translating
	base        int  // record i sits at byte base+i*ptrBytes of src's segments
	src         *source
}

// window returns the window of recSize-byte records around list offset i:
// the page, the window's bounds, its piece and the byte offset of record lo
// in the piece's source.
func (l *ListFile) window(i int32, recSize int) (pg, lo, n int32, p *piece, off int) {
	per := perPage(l.pageSize, recSize)
	pg = i / per
	lo, hi := pg*per, pg*per+per
	p = &l.pieces[l.pieceAt(i)]
	lo, hi = max(lo, p.at), min(hi, p.end())
	back, fwd, off := p.src.span(p.lo+i-p.at, recSize)
	lo, hi = max(lo, i-back), min(hi, i+fwd)
	return pg, lo, hi - lo, p, off - int(i-lo)*recSize
}

// Open returns a cursor positioned at the first record (exhausted for an
// empty list).
func (l *ListFile) Open(io *counters.IO) *ListCursor {
	c := &ListCursor{}
	c.Reset(l, io)
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

// pointer is small enough, with its three callers, for the compiler to
// inline: a jump site pays no call, and a built list one flag test.
func (c *ListCursor) pointer(class int) Pointer {
	seg := c.ptrs.src.ptrs[class]
	if seg == nil {
		return NilPointer
	}
	v := int32(binary.LittleEndian.Uint32(seg[c.ptrs.base+int(c.idx)*ptrBytes:]))
	if c.ptrs.stale {
		v = c.f.trans[class].translate(c.ptrs.src.since[class], v)
	}
	return Pointer(v)
}

// Next advances to the next record in list order; the cursor becomes
// exhausted at the end of the list.
func (c *ListCursor) Next() {
	if !c.Valid() {
		return
	}
	if c.idx+1 >= c.hi {
		c.exhaust()
		return
	}
	c.load(c.idx + 1)
}

// AppendBefore appends to dst the labels of the records from the current
// one on that start before hi, and leaves the cursor on the first record it
// did not append. It never grows dst: it stops once dst is full, so a caller
// that owns the growth rule grows dst and calls again while Start() < hi.
// The records of one page window are decoded in a tight loop, and the
// counters, page touches and final position are those of the loop
//
//	for ; c.Start() < hi && len(dst) < cap(dst); c.Next() { dst = append(dst, c.Label()) }
func (c *ListCursor) AppendBefore(dst []Label, hi int32) []Label {
	for len(dst) < cap(dst) && c.label.Start < hi {
		dst = append(dst, c.label)
		// Land on the records that follow inside both windows — each one
		// charged as scanned, no page charged — until one starts at hi or
		// dst is full; Next then crosses the window edge, or stops at the
		// cursor's upper bound.
		first := c.idx + 1
		end := min(c.hi, c.labels.lo+c.labels.n, c.ptrs.lo+c.ptrs.n, first+int32(cap(dst)-len(dst)))
		data, d := c.labels.data[int(first-c.labels.lo)*labelBytes:int(end-c.labels.lo)*labelBytes], c.labels.delta
		i := first
		for ; len(data) > 0; i++ {
			lab := getLabel(data)
			data = data[labelBytes:]
			l := Label{Start: lab.Start + d, End: lab.End + d, Level: lab.Level}
			if l.Start >= hi {
				c.io.C.ElementsScanned += int64(i - first + 1)
				c.idx, c.label = i, l
				return dst
			}
			dst = append(dst, l)
		}
		c.io.C.ElementsScanned += int64(i - first)
		if i > first {
			c.idx, c.label = i-1, dst[len(dst)-1]
		}
		c.Next()
	}
	return dst
}

// Reset repositions c at the first record of l in place, rebinding the IO
// accounting without allocating: the prepared-plan evaluators keep cursor
// storage across runs and Reset it per run. The cursor's costs are the
// IO's counters; it has no other observer.
func (c *ListCursor) Reset(l *ListFile, io *counters.IO) {
	c.ResetRange(l, io, 0, l.entries)
}

// ResetRange is Reset restricted to the record offsets [lo, hi): the
// cursor starts at lo, Next exhausts at hi, and Seek clamps targets below
// lo up to lo while treating targets at or beyond hi as past-the-end.
// Bounds are clipped to the list; an empty window yields an exhausted
// cursor. This is how partitioned evaluation gives each worker a
// start-range slice of every list without copying any pages.
func (c *ListCursor) ResetRange(l *ListFile, io *counters.IO, lo, hi int) {
	lo, hi = max(lo, 0), min(hi, l.entries)
	*c = ListCursor{f: l, io: io, idx: int32(lo), lo: int32(lo), hi: int32(hi),
		labels: labelWindow{page: -1}, ptrs: ptrWindow{page: -1}}
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
// of the same list, as in §V. A page is charged when the cursor lands on a
// page other than the one charged last, so a run of records on one page
// is charged one read; a piece boundary inside a page moves the window
// and charges nothing.
func (c *ListCursor) load(i int32) {
	if uint32(i-c.labels.lo) >= uint32(c.labels.n) {
		c.slideLabels(i)
	}
	c.io.C.ElementsScanned++
	lab, d := getLabel(c.labels.data[int(i-c.labels.lo)*labelBytes:]), c.labels.delta
	c.label = Label{Start: lab.Start + d, End: lab.End + d, Level: lab.Level}
	if uint32(i-c.ptrs.lo) >= uint32(c.ptrs.n) {
		c.slidePtrs(i)
	}
	c.idx = i
}

func (c *ListCursor) slideLabels(i int32) {
	f := c.f
	pg, lo, n, p, off := f.window(i, labelBytes)
	if pg != c.labels.page {
		c.io.Touch(f.token, pg)
		c.labels.page = pg
	}
	c.labels.lo, c.labels.n, c.labels.delta = lo, n, p.delta
	c.labels.data = p.src.labels[off : off+int(n)*labelBytes]
}

func (c *ListCursor) slidePtrs(i int32) {
	f := c.f
	pg, lo, n, p, off := f.window(i, ptrBytes)
	if pg != c.ptrs.page {
		for class := 0; class < numPtrSegs; class++ {
			if f.mask&(1<<class) != 0 {
				c.io.Touch(f.token+1+uintptr(class), pg)
			}
		}
		c.ptrs.page = pg
	}
	c.ptrs.lo, c.ptrs.n, c.ptrs.base, c.ptrs.src, c.ptrs.stale = lo, n, off-int(lo)*ptrBytes, p.src, f.stale(p.src)
}
