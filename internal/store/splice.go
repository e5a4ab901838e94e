package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// This file derives a view store's successor under a document update. A
// store is never mutated: readers of the old one keep the old one, so
// snapshot isolation is plain immutability. What makes the derivation
// cheap is that it is region-local: the maintenance layer names, per list,
// the records the update can have changed (a Cut), and only those, the
// records whose end label the update moves, and the handful whose pointers
// the region can reach are written again. Everything else is shared with
// the predecessor: a derived list is a piece table over immutable record
// runs (pieces.go) whose label deltas and pointer translations carry the
// update's shift lazily.

// Cut is one list's share of a region-local update: old records [A, B) lie
// in the region and are dropped, and Region holds the region's records
// after the update, in document order. A == B with no Region leaves the
// list's membership alone. Chain holds the old offsets, all below A, of
// the list's records whose region contains the pivot — the ancestors of
// the splice point — whose end label moves while their start stays.
type Cut struct {
	A, B   int
	Region []Label
	Chain  []int
}

// shift is how far the records behind the cut move.
func (c Cut) shift() int32 { return int32(len(c.Region) - (c.B - c.A)) }

// Splicer builds the successor of a store. NewSplicer lays out every list
// as old[0:A) ++ Region ++ old[B:); the caller then sets the pointers of
// the records it recomputed, reading the new labels through List, and
// Finish seals the result. The caller owes a SetPointers to every record
// of the region and to every record outside the cuts with a pointer into
// one: a carried pointer is translated, never nulled.
type Splicer struct {
	next *ViewStore
	// fresh holds, per list, the labels of the records this splice writes —
	// the region's, the chain's and every one passed to SetPointers — in the
	// order written, and rows their pointers.
	fresh []*source
	rows  [][][numPtrSegs]int32
}

// NewSplicer derives the successor of old: label positions >= pivot move
// by delta, the records of each list's cut are replaced, and every pointer
// outside a cut keeps its target — its value moves by the target list's
// shift when the target lies behind that list's cut. A store with a list
// that has reached maxPieces is written out flat first. cuts has one entry
// per list; a tuple store (no lists) takes nil and only has its labels
// moved, in a fresh copy.
func NewSplicer(old *ViewStore, pivot, delta int32, cuts []Cut) *Splicer {
	next := &ViewStore{Kind: old.Kind, View: old.View, PageSize: old.PageSize}
	sp := &Splicer{next: next}
	if t := old.Tuples; t != nil {
		nt := &TupleFile{arity: t.arity, entries: t.entries}
		nt.seg = newSegment(t.entries, t.seg.recSize, t.seg.pageSize)
		copy(nt.seg.data, t.seg.data)
		shiftLabels(&nt.seg, 0, t.entries, pivot, delta)
		next.Tuples = nt
		return sp
	}
	if old.full() {
		w := *old
		w.Lists = make([]*ListFile, len(old.Lists))
		for q, l := range old.Lists {
			w.Lists[q] = l.writeOut()
		}
		old = &w
	}
	next.Lists = make([]*ListFile, len(old.Lists))
	sp.fresh, sp.rows = make([]*source, len(old.Lists)), make([][][numPtrSegs]int32, len(old.Lists))
	for q, l := range old.Lists {
		c := cuts[q]
		A, B, shift := int32(c.A), int32(c.B), c.shift()
		left, rest := cutAt(l.pieces, A)
		mid, right := cutAt(rest, B)
		nl := *l
		nl.entries += int(shift)
		for _, p := range mid {
			count(&nl.counts, p.src, p.lo, p.hi, -1)
		}
		// Room for the records SetPointers isolates, each up to two more
		// pieces, as the maintenance layer sets a handful.
		room := len(c.Region) + len(c.Chain) + 8
		fresh := &source{labels: make([]byte, 0, room*labelBytes)}
		sp.rows[q] = make([][numPtrSegs]int32, 0, room)
		ps := make([]piece, 0, len(left)+len(right)+1+2*room)
		ps = append(ps, left...)
		if len(c.Region) > 0 {
			for _, lab := range c.Region {
				fresh.add(lab)
				sp.rows[q] = append(sp.rows[q], nullRow)
			}
			ps = append(ps, piece{src: fresh, hi: int32(fresh.n), at: A})
		}
		for _, p := range right {
			p.at, p.delta = p.at+shift, p.delta+delta
			ps = append(ps, p)
		}
		nl.pieces = ps
		if shift != 0 {
			nl.cuts = l.cuts.then(B, shift)
		}
		next.Lists[q], sp.fresh[q] = &nl, fresh
	}
	for q, nl := range next.Lists {
		nl.trans[segFollowing], nl.trans[segDescendant] = nl.cuts, nl.cuts
		for ci, child := range old.View.Nodes[q].Children {
			nl.trans[segChild0+ci] = next.Lists[child].cuts
		}
		for class, c := range nl.trans {
			sp.fresh[q].since[class] = int32(len(c))
		}
	}
	for q, c := range cuts {
		for _, j := range c.Chain {
			r := sp.own(q, int32(j))
			lab := sp.fresh[q].label(r)
			lab.End += delta
			putLabel(sp.fresh[q].labels[sp.fresh[q].off(r, labelBytes):], lab)
		}
	}
	return sp
}

// own makes record i of list q one of the splice's fresh records and
// returns its index in the list's fresh source. A carried record is copied
// as the successor reads it — its label, its pointers translated — and its
// pointers leave the list's counts until Finish counts the fresh records.
func (sp *Splicer) own(q int, i int32) int32 {
	l, fresh := sp.next.Lists[q], sp.fresh[q]
	k := l.pieceAt(i)
	p := l.pieces[k]
	if p.src == fresh {
		return p.lo + i - p.at
	}
	r := fresh.add(l.LabelAt(int(i)))
	raw := p.lo + i - p.at
	row := nullRow
	for class := range row {
		row[class] = l.pointer(p.src, raw, class)
	}
	sp.rows[q] = append(sp.rows[q], row)
	count(&l.counts, p.src, raw, raw+1, -1)
	before, after := p, p
	before.hi, after.lo, after.at = raw, raw+1, i+1
	var split [3]piece
	n := 0
	for _, x := range [3]piece{before, {src: fresh, lo: r, hi: r + 1, at: i}, after} {
		if x.lo < x.hi {
			split[n], n = x, n+1
		}
	}
	l.pieces = slices.Replace(l.pieces, k, k+1, split[:n]...)
	return r
}

// List returns list q of the successor. Its labels are final, so LabelAt
// and SeekStart answer for the updated document; its pointers are not
// until Finish.
func (sp *Splicer) List(q int) *ListFile { return sp.next.Lists[q] }

// SetPointers stores the pointers of record i of list q, as the views
// layer computes them; the list reduces them per its scheme, as in Build.
func (sp *Splicer) SetPointers(q, i int, following, descendant int32, children []int32) {
	l := sp.next.Lists[q]
	if l.kind == Element {
		return
	}
	sp.rows[q][sp.own(q, int32(i))] = l.pointerRow(int32(i), following, descendant, children)
}

// Finish seals the successor's lists and returns it. Each list's fresh
// records get their pointers and are counted into the list's pointer
// counts: the old count minus the dropped and rewritten records' non-null
// pointers plus the fresh ones, with no pass over the carried records.
// Pieces that are one run of one source, with one delta, become one.
func (sp *Splicer) Finish() *ViewStore {
	for q, l := range sp.next.Lists {
		if fresh := sp.fresh[q]; fresh.n > 0 {
			fresh.fill(sp.rows[q])
			count(&l.counts, fresh, 0, int32(fresh.n), 1)
			out := l.pieces[:0]
			for _, p := range l.pieces {
				if m := len(out); m > 0 && out[m-1].src == p.src && out[m-1].hi == p.lo && out[m-1].delta == p.delta {
					out[m-1].hi = p.hi
					continue
				}
				out = append(out, p)
			}
			l.pieces = out
		}
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
