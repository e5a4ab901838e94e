package store

import "encoding/binary"

// refSplicer is the eager splice the piece table replaced, kept as the
// reference every read of a derived list is held to. It writes every list
// of the successor out flat: old[0:A) and old[B:) block-copied with their
// labels shifted in place, every pointer re-addressed past its target's cut
// (nulled inside it), the region's pointers null until set, and every
// pointer class recounted when it finishes.
type refSplicer struct {
	next *ViewStore
	srcs []*source
}

// pagedSegment views one segment of a paged source as a segment.
func pagedSegment(data []byte, recSize, pageSize int) segment {
	return segment{data: data, pageSize: pageSize, recSize: recSize, perPage: pageSize / recSize}
}

func newRefSplicer(old *ViewStore, pivot, delta int32, cuts []Cut) *refSplicer {
	next := &ViewStore{Kind: old.Kind, View: old.View, PageSize: old.PageSize, Lists: make([]*ListFile, len(old.Lists))}
	sp := &refSplicer{next: next, srcs: make([]*source, len(old.Lists))}
	ps := old.PageSize
	for q, l := range old.Lists {
		c := cuts[q]
		img := l.image()
		n := l.entries + int(c.shift())
		dst := &source{n: n, pageSize: ps, labels: make([]byte, segBytes(n, labelBytes, ps))}
		tail, rest := c.A+len(c.Region), l.entries-c.B // where old[B:) lands
		labels, from := pagedSegment(dst.labels, labelBytes, ps), pagedSegment(img.labels, labelBytes, ps)
		carry(&labels, 0, &from, 0, c.A)
		shiftLabels(&labels, 0, c.A, pivot, delta)
		for i, lab := range c.Region {
			putLabel(dst.labels[dst.off(int32(c.A+i), labelBytes):], lab)
		}
		carry(&labels, tail, &from, c.B, rest)
		shiftLabels(&labels, tail, rest, pivot, delta)
		for class, seg := range img.ptrs {
			if seg == nil || n == 0 {
				continue
			}
			target := c
			if class >= segChild0 {
				target = cuts[old.View.Nodes[q].Children[class-segChild0]]
			}
			dst.ptrs[class] = make([]byte, segBytes(n, ptrBytes, ps))
			to, from := pagedSegment(dst.ptrs[class], ptrBytes, ps), pagedSegment(seg, ptrBytes, ps)
			carry(&to, 0, &from, 0, c.A)
			fillNil(&to, c.A, len(c.Region))
			carry(&to, tail, &from, c.B, rest)
			shiftPointers(&to, 0, c.A, target)
			shiftPointers(&to, tail, rest, target)
		}
		next.Lists[q] = &ListFile{kind: l.kind, pageSize: ps, childCount: l.childCount, scoped: l.scoped, entries: n}
		sp.srcs[q] = dst
	}
	return sp
}

func (sp *refSplicer) SetPointers(q, i int, following, descendant int32, children []int32) {
	at := sp.srcs[q].off(int32(i), ptrBytes)
	for class, v := range sp.next.Lists[q].pointerRow(int32(i), following, descendant, children) {
		sp.srcs[q].setPointer(class, at, v)
	}
}

// setPointer stores v as the pointer of class of the record at byte offset
// at of a paged source's pointer segments. A class gets its segment, every
// record null, with its first non-null pointer.
func (s *source) setPointer(class, at int, v int32) {
	seg := s.ptrs[class]
	if seg == nil {
		if v == -1 {
			return
		}
		seg = make([]byte, segBytes(s.n, ptrBytes, s.pageSize))
		s.runs(0, int32(s.n), ptrBytes, func(_, k int32, off int) {
			for b := off; b < off+int(k)*ptrBytes; b++ {
				seg[b] = 0xFF
			}
		})
		s.ptrs[class] = seg
	}
	binary.LittleEndian.PutUint32(seg[at:], uint32(v))
}

// Finish recounts every pointer class of every list; a class left without
// a non-null pointer gives up its segment.
func (sp *refSplicer) Finish() *ViewStore {
	for q, l := range sp.next.Lists {
		src := sp.srcs[q]
		count(&l.counts, src, 0, int32(src.n), 1)
		for class, n := range l.counts {
			if n == 0 {
				src.ptrs[class] = nil
			}
		}
		if src.n > 0 {
			l.pieces = []piece{{src: src, hi: int32(src.n)}}
		}
		l.seal()
	}
	return sp.next
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

// shiftPointers re-addresses, in place, the pointers of records
// [at, at+n) past the target list's cut, and nulls those into it.
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
