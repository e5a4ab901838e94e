package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// This file derives a view store's successor under a document update. A
// store is never mutated: the writer builds a fresh flat store — new
// segments, new buffer-pool tokens — and readers of the old one keep the
// old one, so snapshot isolation is plain immutability. What makes the
// derivation cheap is that it is region-local: the maintenance layer names,
// per list, the records the update can have changed (a Cut), everything
// outside is carried over in one sequential pass with its labels remapped
// and its pointer values shifted, and only the handful of records whose
// pointers the region can reach are set again through the Splicer.

// Cut is one list's share of a region-local update: old records [A, B) lie
// in the region and are dropped, and Region holds the region's records
// after the update, in document order. A == B with no Region leaves the
// list's membership alone.
type Cut struct {
	A, B   int
	Region []Label
}

// shift is how far the records behind the cut move.
func (c Cut) shift() int32 { return int32(len(c.Region) - (c.B - c.A)) }

// Splicer builds the successor of a store. NewSplicer lays out every list
// as old[0:A) ++ Region ++ old[B:); the caller then sets the pointers of
// the records it recomputed, reading the new labels through List, and
// Finish seals the result.
type Splicer struct {
	next *ViewStore
}

// NewSplicer carries old over into a fresh store: label positions >= pivot
// move by delta, the records of each list's cut are replaced, and every
// pointer outside a cut keeps its target — its value moves by the target
// list's shift when the target lies behind that list's cut. Pointers of
// region records start out null, as do carried pointers whose target was
// cut away; the caller owes both a SetPointers. cuts has one entry per
// list; a tuple store (no lists) takes nil and only has its labels moved.
func NewSplicer(old *ViewStore, pivot, delta int32, cuts []Cut) *Splicer {
	next := &ViewStore{Kind: old.Kind, View: old.View, PageSize: old.PageSize}
	sp := &Splicer{next: next}
	if t := old.Tuples; t != nil {
		nt := &TupleFile{arity: t.arity, entries: t.entries}
		nt.seg = newSegment(t.entries, t.seg.recSize, t.seg.pageSize)
		carry(&nt.seg, 0, &t.seg, 0, t.entries)
		shiftLabels(&nt.seg, 0, t.entries, pivot, delta)
		next.Tuples = nt
		return sp
	}
	next.Lists = make([]*ListFile, len(old.Lists))
	for q, l := range old.Lists {
		c := cuts[q]
		nl := &ListFile{
			kind: l.kind, pageSize: l.pageSize, childCount: l.childCount, scoped: l.scoped,
			entries: l.entries + int(c.shift()),
		}
		tail, rest := c.A+len(c.Region), l.entries-c.B // where old[B:) lands
		nl.labels = newSegment(nl.entries, labelBytes, l.pageSize)
		carry(&nl.labels, 0, &l.labels, 0, c.A)
		shiftLabels(&nl.labels, 0, c.A, pivot, delta)
		for it, i := nl.labels.iter(c.A), 0; i < len(c.Region); i++ {
			putLabel(it.next(), c.Region[i])
		}
		carry(&nl.labels, tail, &l.labels, c.B, rest)
		shiftLabels(&nl.labels, tail, rest, pivot, delta)
		for class := range l.ptrs {
			src := &l.ptrs[class]
			if !src.present() || nl.entries == 0 {
				continue
			}
			target := c
			if class >= segChild0 {
				target = cuts[old.View.Nodes[q].Children[class-segChild0]]
			}
			dst := newSegment(nl.entries, ptrBytes, l.pageSize)
			carry(&dst, 0, src, 0, c.A)
			fillNil(&dst, c.A, len(c.Region))
			carry(&dst, tail, src, c.B, rest)
			shiftPointers(&dst, 0, c.A, target)
			shiftPointers(&dst, tail, rest, target)
			nl.ptrs[class] = dst
		}
		next.Lists[q] = nl
	}
	return sp
}

// List returns list q of the successor. Its labels are final, so LabelAt
// and SeekStart answer for the updated document; its pointers are not
// until Finish.
func (sp *Splicer) List(q int) *ListFile { return sp.next.Lists[q] }

// SetPointers stores the pointers of record i of list q, as the views
// layer computes them; the list reduces them per its scheme, as in Build.
func (sp *Splicer) SetPointers(q, i int, following, descendant int32, children []int32) {
	sp.next.Lists[q].setPointers(i, following, descendant, children)
}

// Finish seals the successor's lists and returns it.
func (sp *Splicer) Finish() *ViewStore {
	for _, l := range sp.next.Lists {
		l.seal()
	}
	return sp.next
}

// recIter walks a segment's records in order without the per-record
// division of rec.
type recIter struct {
	s    *segment
	off  int // byte offset of the next record
	slot int // its index within its page
}

func (s *segment) iter(i int) recIter {
	return recIter{s: s, off: s.offset(i), slot: i % s.perPage}
}

func (it *recIter) next() []byte {
	s := it.s
	rec := s.data[it.off : it.off+s.recSize]
	it.off += s.recSize
	if it.slot++; it.slot == s.perPage {
		it.slot = 0
		it.off += s.pageSize - s.perPage*s.recSize
	}
	return rec
}

// carry copies n records of src, from record from on, to dst at record at,
// in runs that are contiguous on both sides' pages.
func carry(dst *segment, at int, src *segment, from, n int) {
	for n > 0 {
		run := min(n, src.perPage-from%src.perPage, dst.perPage-at%dst.perPage)
		copy(dst.data[dst.offset(at):], src.data[src.offset(from):][:run*src.recSize])
		at, from, n = at+run, from+run, n-run
	}
}

// shiftLabels moves, in place, the start and end positions >= pivot of
// records [at, at+n) by delta. A record may hold several labels (tuples).
func shiftLabels(s *segment, at, n int, pivot, delta int32) {
	for it := s.iter(at); n > 0; n-- {
		rec := it.next()
		for o := 0; o < len(rec); o += labelBytes {
			end := int32(binary.LittleEndian.Uint32(rec[o+4:]))
			if end < pivot {
				continue // and so is its start
			}
			binary.LittleEndian.PutUint32(rec[o+4:], uint32(end+delta))
			if start := int32(binary.LittleEndian.Uint32(rec[o:])); start >= pivot {
				binary.LittleEndian.PutUint32(rec[o:], uint32(start+delta))
			}
		}
	}
}

// shiftPointers re-addresses, in place, the pointers of records
// [at, at+n) past the target list's cut.
func shiftPointers(s *segment, at, n int, target Cut) {
	a, b, shift := int32(target.A), int32(target.B), target.shift()
	if a == b && shift == 0 {
		return // the target list did not move
	}
	for it := s.iter(at); n > 0; n-- {
		rec := it.next()
		switch v := int32(binary.LittleEndian.Uint32(rec)); {
		case v >= b:
			binary.LittleEndian.PutUint32(rec, uint32(v+shift))
		case v >= a:
			binary.LittleEndian.PutUint32(rec, ^uint32(0))
		}
	}
}

// fillNil sets records [at, at+n) of a pointer segment to the null pointer.
func fillNil(s *segment, at, n int) {
	for it := s.iter(at); n > 0; n-- {
		binary.LittleEndian.PutUint32(it.next(), ^uint32(0))
	}
}

// CheckEquivalent verifies that two stores hold byte-identical content —
// the maintenance layer's self-check that an incrementally maintained
// store matches a from-scratch rebuild. It compares the persisted images:
// headers, pointer counts, segment presence and every page, padding
// included.
func CheckEquivalent(got, want *ViewStore) error {
	var g, w bytes.Buffer
	if _, err := got.WriteTo(&g); err != nil {
		return err
	}
	if _, err := want.WriteTo(&w); err != nil {
		return err
	}
	gb, wb, i := g.Bytes(), w.Bytes(), 0
	for i < len(gb) && i < len(wb) && gb[i] == wb[i] {
		i++
	}
	if i < len(gb) || i < len(wb) {
		return fmt.Errorf("store: images of %d and %d bytes differ at byte %d (page %d)", len(gb), len(wb), i, i/got.PageSize)
	}
	return nil
}
