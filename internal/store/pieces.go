// Piece table: how a ListFile derived by a Splicer holds its records.
//
// A list's logical image is flat: record i's label and pointers on page
// i/perPage of the labels segment and of every present pointer segment. A
// built or loaded list stores exactly that image, as one piece over one
// paged source. A derived list is a sequence of pieces, each a run of
// records of one immutable source — the flat image of a predecessor, or the
// records one splice wrote fresh (unpadded: they are no page segment) —
// plus a label delta. A splice cuts at most two pieces, inserts the fresh
// ones and moves the later pieces' offsets and deltas in O(pieces); no
// carried record is copied or rewritten. DESIGN.md, "Region-local
// maintenance", has the argument.
package store

import "encoding/binary"

// maxPieces bounds a list's table and its cut history: a store with a list
// that has reached it is written out flat before its next splice, so reads
// and pointer translations stay short and the O(n) pass is paid once per
// maxPieces/2 or so updates (EXPERIMENTS.md has the sweep).
const maxPieces = 64

// source is an immutable run of records pieces are cut from: n labels and,
// per pointer class it holds, n pointers. A paged source (pageSize > 0) lays
// them out like a flat list's segments; a fresh one (pageSize 0) packs them
// back to back. since holds, per pointer class, how many cuts the target
// list had taken when the source was written: its pointer values are
// offsets into that version of the target.
type source struct {
	n        int
	pageSize int
	labels   []byte
	ptrs     [numPtrSegs][]byte
	since    [numPtrSegs]int32
}

// off returns the byte offset of record r in one of the source's segments
// of recSize-byte records.
func (s *source) off(r int32, recSize int) int {
	if s.pageSize == 0 {
		return int(r) * recSize
	}
	per := s.pageSize / recSize
	return int(r)/per*s.pageSize + int(r)%per*recSize
}

// perPage returns how many recSize-byte records a page holds. recSize is
// labelBytes or ptrBytes, so the compiler divides by a constant.
func perPage(pageSize, recSize int) int32 {
	if recSize == labelBytes {
		return int32(pageSize / labelBytes)
	}
	return int32(pageSize / ptrBytes)
}

// span returns the run [r-back, r+fwd) of records around r that lie back to
// back in the source's segments of recSize-byte records, and r's byte
// offset in them.
func (s *source) span(r int32, recSize int) (back, fwd int32, off int) {
	if s.pageSize == 0 {
		return r, int32(s.n) - r, int(r) * recSize
	}
	per := perPage(s.pageSize, recSize)
	pg := r / per
	back = r - pg*per
	return back, min(per-back, int32(s.n)-r), int(pg)*s.pageSize + int(back)*recSize
}

// runs calls f for each run [r, r+k) of records [lo,hi) that lie back to
// back in the source's segments of recSize-byte records, with r's byte
// offset: a page of a paged source at a time, so no record divides.
func (s *source) runs(lo, hi int32, recSize int, f func(r, k int32, off int)) {
	for r := lo; r < hi; {
		_, fwd, off := s.span(r, recSize)
		k := min(fwd, hi-r)
		f(r, k, off)
		r += k
	}
}

// label reads the raw label of record r.
func (s *source) label(r int32) Label { return getLabel(s.labels[s.off(r, labelBytes):]) }

// raw reads the raw pointer of class of record r, -1 when the source holds
// no such class.
func (s *source) raw(class int, r int32) int32 {
	if s.ptrs[class] == nil {
		return -1
	}
	return int32(binary.LittleEndian.Uint32(s.ptrs[class][s.off(r, ptrBytes):]))
}

// fill gives a fresh source of labels only its records' pointers, rows[r]
// record r's, with a segment for every class one of them holds.
func (s *source) fill(rows [][numPtrSegs]int32) {
	var held [numPtrSegs]bool
	n := 0
	for _, row := range rows {
		for class, v := range row {
			if v != -1 && !held[class] {
				held[class], n = true, n+1
			}
		}
	}
	size := s.n * ptrBytes
	buf := make([]byte, n*size)
	for class := range s.ptrs {
		if !held[class] {
			continue
		}
		seg := buf[:size:size]
		for r, row := range rows {
			binary.LittleEndian.PutUint32(seg[r*ptrBytes:], uint32(row[class]))
		}
		s.ptrs[class], buf = seg, buf[size:]
	}
}

// add appends a record with label l to a source of labels only and
// returns its index.
func (s *source) add(l Label) int32 {
	var rec [labelBytes]byte
	putLabel(rec[:], l)
	s.labels = append(s.labels, rec[:]...)
	s.n++
	return int32(s.n - 1)
}

// flatList is a built or loaded list together with its one source and
// piece, so that loading a list costs one allocation.
type flatList struct {
	ListFile
	src source
	one [1]piece
}

// newFlat returns l holding exactly src.
func newFlat(l ListFile, src source) *ListFile {
	f := &flatList{ListFile: l, src: src}
	if src.n > 0 {
		f.one[0] = piece{src: &f.src, hi: int32(src.n)}
		f.pieces = f.one[:]
	}
	return &f.ListFile
}

// piece is the run [lo,hi) of src's records, at list offset at on; the
// list reads their labels moved by delta.
type piece struct {
	src    *source
	lo, hi int32
	at     int32
	delta  int32
}

func (p *piece) end() int32 { return p.at + p.hi - p.lo }

// start returns the list's start label of raw record r of the piece.
func (p *piece) start(r int32) int32 {
	return int32(binary.LittleEndian.Uint32(p.src.labels[p.src.off(r, labelBytes):])) + p.delta
}

// step is one cut a list took, in the offsets of the list before it:
// offsets from b on moved by shift. No offset inside the cut is ever read
// through the step: every record that addressed one was written again.
type step struct{ b, shift int32 }

// cutLog holds the cuts a list took since its store was last flat, in
// order. A pointer into the list written when it had taken n cuts reads
// through cutLog[n:], at most maxPieces steps.
type cutLog []step

// then returns the log with one more cut, after which the offsets from b on
// move by shift. The receiver is not modified.
func (c cutLog) then(b, shift int32) cutLog {
	return append(c[:len(c):len(c)], step{b: b, shift: shift})
}

// translate carries pointer value v into the list, written when the list
// had taken since cuts, through the cuts it has taken after. No cut is at
// a negative offset, so the null pointer stays null.
func (c cutLog) translate(since, v int32) int32 {
	for _, s := range c[since:] {
		if v >= s.b {
			v += s.shift
		}
	}
	return v
}

// pieceAt returns the index of the piece holding list offset i.
func (l *ListFile) pieceAt(i int32) int {
	ps := l.pieces
	lo, hi := 0, len(ps)
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if ps[mid].at <= i {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// pointer reads the pointer of class of raw record r of src as an offset
// into the target list of this version: the raw value carried through the
// cuts its target took since src was written.
func (l *ListFile) pointer(src *source, r int32, class int) int32 {
	return l.trans[class].translate(src.since[class], src.raw(class, r))
}

// stale reports whether pointers read from src need translating: the
// target list of one of its classes took a cut after src was written.
// Translating one whose target did not is a walk over no step.
func (l *ListFile) stale(src *source) bool {
	for class, c := range l.trans {
		if int(src.since[class]) < len(c) {
			return true
		}
	}
	return false
}

// flat returns the list's source when the list is exactly that source's
// paged image, nil when it must be written out to get one.
func (l *ListFile) flat() *source {
	if len(l.pieces) != 1 {
		return nil
	}
	p := &l.pieces[0]
	if p.lo != 0 || int(p.hi) != p.src.n || p.delta != 0 || p.src.pageSize == 0 || l.stale(p.src) {
		return nil
	}
	return p.src
}

// image returns the list's flat image as a paged source: its own, or one
// written out piece by piece — labels moved by their piece's delta,
// pointers translated — with a segment for every class the list holds.
func (l *ListFile) image() *source {
	if src := l.flat(); src != nil {
		return src
	}
	n := int32(l.entries)
	dst := &source{n: l.entries, pageSize: l.pageSize, labels: make([]byte, segBytes(l.entries, labelBytes, l.pageSize))}
	// A window lies on one page of the image, so it is one block of dst.
	for i := int32(0); i < n; {
		_, _, k, p, off := l.window(i, labelBytes)
		run := dst.labels[dst.off(i, labelBytes):][:k*labelBytes]
		copy(run, p.src.labels[off:])
		for b := 0; p.delta != 0 && b < len(run); b += labelBytes {
			binary.LittleEndian.PutUint32(run[b:], binary.LittleEndian.Uint32(run[b:])+uint32(p.delta))
			binary.LittleEndian.PutUint32(run[b+4:], binary.LittleEndian.Uint32(run[b+4:])+uint32(p.delta))
		}
		i += k
	}
	for class := range dst.ptrs {
		if l.mask&(1<<class) == 0 {
			continue
		}
		seg := make([]byte, segBytes(l.entries, ptrBytes, l.pageSize))
		for i := int32(0); i < n; {
			_, _, k, p, off := l.window(i, ptrBytes)
			run := seg[dst.off(i, ptrBytes):][:k*ptrBytes]
			if p.src.ptrs[class] == nil {
				for b := range run {
					run[b] = 0xFF
				}
			} else {
				copy(run, p.src.ptrs[class][off:])
			}
			for b, stale := 0, l.stale(p.src); stale && b < len(run); b += ptrBytes {
				v := l.trans[class].translate(p.src.since[class], int32(binary.LittleEndian.Uint32(run[b:])))
				binary.LittleEndian.PutUint32(run[b:], uint32(v))
			}
			i += k
		}
		dst.ptrs[class] = seg
	}
	return dst
}

// writeOut returns l as a flat list: one piece over its image, no history.
func (l *ListFile) writeOut() *ListFile {
	w := *l
	w.pieces, w.cuts, w.trans = nil, nil, [numPtrSegs]cutLog{}
	if l.entries > 0 {
		w.pieces = []piece{{src: l.image(), hi: int32(l.entries)}}
	}
	return &w
}

// full reports whether a list of s has reached maxPieces pieces or cuts.
func (s *ViewStore) full() bool {
	for _, l := range s.Lists {
		if len(l.pieces) >= maxPieces || len(l.cuts) >= maxPieces {
			return true
		}
	}
	return false
}

// cutAt divides a table at list offset x, cutting the piece that spans x.
// ps is not modified.
func cutAt(ps []piece, x int32) (left, right []piece) {
	k := 0
	for k < len(ps) && ps[k].end() <= x {
		k++
	}
	if k == len(ps) || ps[k].at >= x {
		return ps[:k:k], ps[k:]
	}
	l, r := ps[k], ps[k]
	l.hi = l.lo + x - l.at
	r.lo, r.at = l.hi, x
	return append(ps[:k:k], l), append([]piece{r}, ps[k+1:]...)
}

// count adds sign for every non-null pointer of raw records [lo,hi) of src
// to its class's count. Translation never nulls a pointer, so the raw
// values answer.
func count(counts *[numPtrSegs]int, src *source, lo, hi int32, sign int) {
	for class, seg := range src.ptrs {
		if seg == nil {
			continue
		}
		src.runs(lo, hi, ptrBytes, func(_, k int32, off int) {
			for b := off; b < off+int(k)*ptrBytes; b += ptrBytes {
				if binary.LittleEndian.Uint32(seg[b:]) != ^uint32(0) {
					counts[class] += sign
				}
			}
		})
	}
}
