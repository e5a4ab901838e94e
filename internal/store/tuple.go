package store

import (
	"encoding/binary"
	"fmt"

	"viewjoin/internal/counters"
	"viewjoin/internal/obs"
	"viewjoin/internal/views"
)

// TupleFile is the on-disk form of the tuple (T) scheme: every match of the
// view as a fixed-size record of n region labels, sorted by the composite
// key (e1.start, ..., en.start) — InterJoin's storage (§I). It is a single
// flat paged segment of arity×12-byte records.
type TupleFile struct {
	arity   int // view nodes per tuple
	entries int
	seg     segment
}

// Arity returns the number of nodes per tuple.
func (f *TupleFile) Arity() int { return f.arity }

// Entries returns the number of tuples.
func (f *TupleFile) Entries() int { return f.entries }

// Kind returns Tuple.
func (f *TupleFile) Kind() Kind { return Tuple }

// NumPages returns the file's page count.
func (f *TupleFile) NumPages() int { return f.seg.pages() }

// SizeBytes returns the page-granular on-disk size.
func (f *TupleFile) SizeBytes() int64 { return int64(f.seg.pages()) * int64(f.seg.pageSize) }

// PayloadBytes returns the record bytes excluding page padding.
func (f *TupleFile) PayloadBytes() int64 { return int64(f.entries) * int64(f.arity) * labelBytes }

// segments returns the file's single segment.
func (f *TupleFile) segments() [][]byte {
	if !f.seg.present() {
		return nil
	}
	return [][]byte{f.seg.data}
}

func buildTupleFile(m *views.Materialized, pageSize int) (*TupleFile, error) {
	arity := m.View.Size()
	recSize := arity * labelBytes
	if recSize > pageSize {
		return nil, fmt.Errorf("store: tuple record size %d exceeds page size %d", recSize, pageSize)
	}
	matches := m.Matches()
	f := &TupleFile{
		arity:   arity,
		entries: len(matches),
		seg:     newSegment(len(matches), recSize, pageSize),
	}
	for i, mt := range matches {
		rec := f.seg.rec(int32(i))
		for j, id := range mt {
			n := m.Doc.Node(id)
			putLabel(rec[j*labelBytes:], Label{Start: n.Start, End: n.End, Level: n.Level})
		}
	}
	return f, nil
}

// TupleItem is one decoded tuple: Labels[i] is the region label bound to
// view node i.
type TupleItem struct {
	Labels []Label
}

// Label is a region label triple, stored as three little-endian int32s.
type Label = views.Label

func getLabel(rec []byte) Label {
	return Label{
		Start: int32(binary.LittleEndian.Uint32(rec[0:])),
		End:   int32(binary.LittleEndian.Uint32(rec[4:])),
		Level: int32(binary.LittleEndian.Uint32(rec[8:])),
	}
}

func putLabel(rec []byte, l Label) {
	binary.LittleEndian.PutUint32(rec[0:], uint32(l.Start))
	binary.LittleEndian.PutUint32(rec[4:], uint32(l.End))
	binary.LittleEndian.PutUint32(rec[8:], uint32(l.Level))
}

// TupleCursor is a forward cursor over a TupleFile.
type TupleCursor struct {
	f         *TupleFile
	io        *counters.IO
	tr        *obs.Recorder
	node      int32
	idx       int
	item      TupleItem
	valid     bool
	lastTouch int32
}

// Open returns a cursor positioned at the first tuple.
func (f *TupleFile) Open(io *counters.IO) *TupleCursor {
	return f.OpenTraced(io, nil, -1)
}

// OpenTraced is Open with an optional tracer: every tuple decode emits one
// EvScan per label, attributed to the given query node (tuples bind
// several query nodes; callers pass a representative one).
func (f *TupleFile) OpenTraced(io *counters.IO, tr *obs.Recorder, node int) *TupleCursor {
	c := &TupleCursor{f: f, io: io, tr: tr, node: int32(node), lastTouch: -1}
	c.item.Labels = make([]Label, f.arity)
	if f.entries == 0 {
		return c
	}
	c.load(0)
	return c
}

// Valid reports whether the cursor is positioned on a tuple.
func (c *TupleCursor) Valid() bool { return c.valid }

// Item returns the current tuple. It must only be called when Valid.
func (c *TupleCursor) Item() *TupleItem { return &c.item }

// Index returns the current tuple's ordinal position.
func (c *TupleCursor) Index() int { return c.idx }

// Next advances to the next tuple.
func (c *TupleCursor) Next() {
	if !c.valid {
		return
	}
	c.tr.Event(obs.EvCursorAdvance, int(c.node), 1)
	if c.idx+1 >= c.f.entries {
		c.valid = false
		return
	}
	c.load(c.idx + 1)
}

func (c *TupleCursor) load(i int) {
	if page := c.f.seg.page(int32(i)); c.lastTouch != page {
		c.io.Touch(c.f.seg.token, page)
		c.lastTouch = page
	}
	c.io.C.ElementsScanned += int64(c.f.arity)
	c.tr.Event(obs.EvScan, int(c.node), int64(c.f.arity))
	rec := c.f.seg.rec(int32(i))
	for j := 0; j < c.f.arity; j++ {
		c.item.Labels[j] = getLabel(rec[j*labelBytes:])
	}
	c.idx, c.valid = i, true
}
