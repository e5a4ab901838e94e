// Package store implements the paper's four physical storage schemes for
// materialized TPQ views as paged flat-buffer files:
//
//   - Tuple (T): each view match stored as an n-tuple of region labels,
//     sorted by composite start key (InterJoin's scheme, §I).
//   - Element (E): one list per view node holding the solution nodes'
//     region labels in document order, no pointers.
//   - Linked-element (LE): element lists plus materialized child,
//     descendant and following pointers encoding the conceptual DAG
//     (§III-A/B). Pointers are record offsets into the target list.
//   - Partial linked-element (LEp): LE with the §III-C heuristic — child
//     pointers always materialized; following/descendant pointers only when
//     the pointed node is more than one entry away.
//
// Every file is a structure-of-arrays: fixed-width records split across
// page-aligned byte segments (one segment for the region labels, one per
// materialized pointer class), with records never spanning page
// boundaries. The segments are the persistence format — SaveView writes
// them verbatim and LoadView slices them out of one buffer, so the disk
// bytes are the runtime representation (zero-copy, mmap-ready). A list
// derived from another by a document update holds the same image as a
// piece table over its predecessors' records (pieces.go).
//
// All reads go through cursors (*ListCursor, *TupleCursor) that account
// elements scanned and the page boundaries of the flat image into
// counters.Counters. The uniform face of both file types, for size
// accounting and persistence, is the Source interface.
package store

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"

	"viewjoin/internal/tpq"
	"viewjoin/internal/views"
)

// Kind identifies a storage scheme.
type Kind int8

const (
	// Tuple is InterJoin's n-tuple scheme (T).
	Tuple Kind = iota
	// Element is the per-type list scheme without pointers (E).
	Element
	// Linked is the linked-element scheme with all pointers (LE).
	Linked
	// LinkedPartial is the partially materialized variant (LEp).
	LinkedPartial
)

// String names the scheme as in the paper's tables.
func (k Kind) String() string {
	switch k {
	case Tuple:
		return "T"
	case Element:
		return "E"
	case Linked:
		return "LE"
	case LinkedPartial:
		return "LEp"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// DefaultPageSize is the page size used when 0 is passed to Build.
const DefaultPageSize = 4096

// Pointer addresses a record by its offset (ordinal) within a list file —
// the position the views layer computes, stored on disk as a little-endian
// int32. NilPointer (-1) is the null pointer. Pointers order exactly like
// list positions, so "earlier in the list" is plain <.
type Pointer int32

// NilPointer is the null pointer.
const NilPointer Pointer = -1

// IsNil reports whether p is the null pointer.
func (p Pointer) IsNil() bool { return p < 0 }

// MaxChildren is the maximum number of child pointers per view node the
// record format supports.
const MaxChildren = 6

// Pointer-segment indices of a ListFile: following, descendant, then one
// per child edge.
const (
	segFollowing  = 0
	segDescendant = 1
	segChild0     = 2
	numPtrSegs    = segChild0 + MaxChildren
)

const (
	labelBytes = 12 // start, end, level (little-endian int32 each)
	ptrBytes   = 4  // record offset (little-endian int32)
)

var tokenSeq atomic.Uintptr

// Source is the uniform face of one paged flat-buffer file of fixed-width
// records. Both physical file types implement it: *ListFile (the
// element-family schemes E/LE/LEp) and *TupleFile (the tuple scheme T).
// Generic layers — persistence, size accounting, plan rendering — operate
// on Sources; the engines open the concrete types' typed cursors.
type Source interface {
	// Kind returns the storage scheme the file belongs to.
	Kind() Kind
	// Entries returns the number of records.
	Entries() int
	// NumPages returns the total page count across the file's segments —
	// the quantity the paper's §V cost formulas charge for a full scan.
	NumPages() int
	// SizeBytes returns the page-granular on-disk size.
	SizeBytes() int64
	// PayloadBytes returns the record bytes excluding page padding.
	PayloadBytes() int64

	// segments returns the bytes of the file's present segments in
	// persistence order; it is unexported so only this package's paged
	// files can be Sources.
	segments() [][]byte
}

// segment is one page-aligned flat buffer of fixed-width records. Records
// never span page boundaries: record i lives on page i/perPage at byte
// offset (i%perPage)*recSize within the page, and the tail of each page
// that cannot fit a whole record is zero padding. The buffer length is a
// whole number of pages, so the segment can be persisted verbatim and
// adopted back by slicing.
type segment struct {
	data     []byte
	pageSize int
	recSize  int
	perPage  int
	token    uintptr // the file identity page touches are charged under
}

// newSegment allocates a zeroed segment for the given record count.
func newSegment(entries, recSize, pageSize int) segment {
	s := segment{
		pageSize: pageSize,
		recSize:  recSize,
		perPage:  pageSize / recSize,
		token:    tokenSeq.Add(1),
	}
	if entries > 0 {
		pages := (entries + s.perPage - 1) / s.perPage
		s.data = make([]byte, pages*pageSize)
	}
	return s
}

// adopt binds the segment to an existing buffer (a slice of a loaded or
// mapped file) without copying.
func adopt(data []byte, recSize, pageSize int) segment {
	return segment{
		data:     data,
		pageSize: pageSize,
		recSize:  recSize,
		perPage:  pageSize / recSize,
		token:    tokenSeq.Add(1),
	}
}

// segBytes returns the byte length a segment of entries records occupies,
// in whole pages.
func segBytes(entries, recSize, pageSize int) int64 {
	if entries == 0 {
		return 0
	}
	perPage := pageSize / recSize
	pages := (int64(entries) + int64(perPage) - 1) / int64(perPage)
	return pages * int64(pageSize)
}

func (s *segment) present() bool { return s.data != nil }

func (s *segment) pages() int {
	if s.pageSize == 0 {
		return 0
	}
	return len(s.data) / s.pageSize
}

// page returns the page number record i lives on.
func (s *segment) page(i int32) int32 { return i / int32(s.perPage) }

// offset returns the byte offset of record i.
func (s *segment) offset(i int) int { return (i/s.perPage)*s.pageSize + (i%s.perPage)*s.recSize }

// rec returns the record bytes of record i.
func (s *segment) rec(i int32) []byte {
	off := s.offset(int(i))
	return s.data[off : off+s.recSize]
}

// ViewStore is one materialized view laid out in flat paged segments in a
// given scheme. Element-family schemes populate Lists (one file per view
// node); the tuple scheme populates Tuples.
type ViewStore struct {
	Kind     Kind
	View     *tpq.Pattern
	PageSize int
	Lists    []*ListFile
	Tuples   *TupleFile
}

// Sources returns the store's files behind the uniform Source interface,
// in view-node order (a single element for the tuple scheme).
func (s *ViewStore) Sources() []Source {
	if s.Tuples != nil {
		return []Source{s.Tuples}
	}
	out := make([]Source, len(s.Lists))
	for i, l := range s.Lists {
		out[i] = l
	}
	return out
}

// Build lays out the materialized view m in the given scheme. The views
// layer's pointer positions are emitted directly as record offsets —
// LinkedPartial applies the §III-C reduction inline, Element drops the
// pointer segments, and Tuple serializes m.Matches(). pageSize 0 means
// DefaultPageSize.
func Build(m *views.Materialized, kind Kind, pageSize int) (*ViewStore, error) {
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	s := &ViewStore{Kind: kind, View: m.View, PageSize: pageSize}
	if kind == Tuple {
		tf, err := buildTupleFile(m, pageSize)
		if err != nil {
			return nil, err
		}
		s.Tuples = tf
		return s, nil
	}
	lists, err := buildListFiles(m, kind, pageSize)
	if err != nil {
		return nil, err
	}
	s.Lists = lists
	return s, nil
}

// MustBuild is Build but panics on error.
func MustBuild(m *views.Materialized, kind Kind, pageSize int) *ViewStore {
	s, err := Build(m, kind, pageSize)
	if err != nil {
		panic(err)
	}
	return s
}

// SizeBytes returns the on-disk size in page-granular bytes.
func (s *ViewStore) SizeBytes() int64 {
	var n int64
	for _, src := range s.Sources() {
		n += src.SizeBytes()
	}
	return n
}

// PayloadBytes returns the number of record bytes actually stored,
// excluding page padding.
func (s *ViewStore) PayloadBytes() int64 {
	var n int64
	for _, src := range s.Sources() {
		n += src.PayloadBytes()
	}
	return n
}

// NumPages returns the total page count across all files and segments.
func (s *ViewStore) NumPages() int {
	n := 0
	for _, src := range s.Sources() {
		n += src.NumPages()
	}
	return n
}

// NumPointers returns the number of materialized (non-null) pointers.
func (s *ViewStore) NumPointers() int {
	n := 0
	for _, l := range s.Lists {
		n += l.pointers()
	}
	return n
}

// NumPieces returns the piece count of the store's largest list table: 1
// for a flat store, growing with every update the store is maintained
// through until it is written out flat again.
func (s *ViewStore) NumPieces() int {
	n := 1
	for _, l := range s.Lists {
		n = max(n, len(l.pieces))
	}
	return n
}

// TotalEntries returns the total record count across lists (or tuples).
func (s *ViewStore) TotalEntries() int {
	n := 0
	for _, src := range s.Sources() {
		n += src.Entries()
	}
	return n
}

// ListFile is one list of records for a single view node, in document
// order. Its image — what SaveView writes and what a cursor charges pages
// of — is flat: a labels segment (12-byte records) plus one 4-byte-record
// pointer segment per materialized pointer class, records never spanning a
// page. A pointer class whose pointers are all null occupies no segment at
// all — the E scheme stores only labels, and LEp's reduction shrinks the
// file by whole segments. A built or loaded list holds its image as one
// piece over one paged source; a list derived by a Splicer holds it as a
// piece table (pieces.go).
type ListFile struct {
	kind       Kind
	pageSize   int
	childCount int  // child pointer classes of the view node
	scoped     bool // following pointers are scoped to a parent view node
	entries    int
	counts     [numPtrSegs]int // non-null pointers per class
	mask       uint16          // bit i set when pointer class i has a segment
	token      uintptr         // pool identity of the labels; class i is token+1+i
	pieces     []piece
	// cuts holds the cuts the list took since its store was last flat;
	// trans holds, per pointer class, the cuts of the list its pointers
	// address. Both are empty for a flat list.
	cuts  cutLog
	trans [numPtrSegs]cutLog
}

// Kind returns the scheme the list belongs to.
func (l *ListFile) Kind() Kind { return l.kind }

// Entries returns the number of records in the list.
func (l *ListFile) Entries() int { return l.entries }

// Scoped reports whether this list's following pointers carry the
// same-lowest-parent-ancestor constraint (§III-A), i.e. the view node has a
// parent in its view. Unscoped following pointers may always be followed;
// scoped ones only under the safe-jump rule (see engine/viewjoin).
func (l *ListFile) Scoped() bool { return l.scoped }

// NumPages returns the page count across the list's segments.
func (l *ListFile) NumPages() int {
	labels := segBytes(l.entries, labelBytes, l.pageSize)
	ptrs := segBytes(l.entries, ptrBytes, l.pageSize) * int64(bits.OnesCount16(l.mask))
	return int((labels + ptrs) / int64(l.pageSize))
}

// SizeBytes returns the page-granular on-disk size.
func (l *ListFile) SizeBytes() int64 { return int64(l.NumPages()) * int64(l.pageSize) }

// PayloadBytes returns the record bytes excluding page padding.
func (l *ListFile) PayloadBytes() int64 {
	return int64(l.entries) * (labelBytes + ptrBytes*int64(bits.OnesCount16(l.mask)))
}

// pointers returns the number of non-null pointers across all classes.
func (l *ListFile) pointers() int {
	n := 0
	for _, c := range l.counts {
		n += c
	}
	return n
}

// LabelAt decodes the region label of record i without charging the cost
// model: it is a planning accessor (resume prefixes, doc-root probes),
// not an evaluation read. i must be in [0, Entries()).
func (l *ListFile) LabelAt(i int) Label {
	p := &l.pieces[l.pieceAt(int32(i))]
	lab := p.src.label(p.lo + int32(i) - p.at)
	lab.Start, lab.End = lab.Start+p.delta, lab.End+p.delta
	return lab
}

// SeekStart returns the offset of the first record whose start label is
// >= s, or Entries() when no such record exists. Lists are laid out in
// document order, so the lookup is a binary search over the pieces' last
// records and then one within the piece; like LabelAt it is a planning
// accessor and charges nothing.
func (l *ListFile) SeekStart(s int32) int {
	ps := l.pieces
	k, hi := 0, len(ps)
	for k < hi {
		mid := int(uint(k+hi) >> 1)
		if ps[mid].start(ps[mid].hi-1) < s {
			k = mid + 1
		} else {
			hi = mid
		}
	}
	if k == len(ps) {
		return l.entries
	}
	p := &ps[k]
	lo, up := p.lo, p.hi
	for lo < up {
		mid := int32(uint32(lo+up) >> 1)
		if p.start(mid) < s {
			lo = mid + 1
		} else {
			up = mid
		}
	}
	return int(p.at + lo - p.lo)
}

// segments returns the image's present segments in persistence order:
// labels first, then pointer classes ascending.
func (l *ListFile) segments() [][]byte {
	if l.entries == 0 {
		return nil
	}
	src := l.image()
	out := append(make([][]byte, 0, 1+numPtrSegs), src.labels)
	for class, seg := range src.ptrs {
		if l.mask&(1<<class) != 0 {
			out = append(out, seg)
		}
	}
	return out
}

// buildListFiles serializes every list of m column by column: the views
// layer's labels and pointer positions, already record offsets, are
// encoded straight into the page segments with the scheme's pointer
// policy applied inline — no intermediate reduced copy, no location
// resolution. A pointer class without a non-null pointer gets no segment.
func buildListFiles(m *views.Materialized, kind Kind, pageSize int) ([]*ListFile, error) {
	if labelBytes > pageSize {
		return nil, fmt.Errorf("store: record size %d exceeds page size %d", labelBytes, pageSize)
	}
	nq := m.View.Size()
	files := make([]*ListFile, nq)
	for q := 0; q < nq; q++ {
		list := &m.Lists[q]
		n := len(list.Labels)
		childCount := len(m.View.Nodes[q].Children)
		if childCount > MaxChildren {
			return nil, fmt.Errorf("store: view node %d has %d children; record format supports %d",
				q, childCount, MaxChildren)
		}
		lf := ListFile{
			kind:       kind,
			pageSize:   pageSize,
			childCount: childCount,
			scoped:     m.View.Nodes[q].Parent != -1,
			entries:    n,
		}
		src := source{n: n, pageSize: pageSize, labels: make([]byte, segBytes(n, labelBytes, pageSize))}
		src.runs(0, int32(n), labelBytes, func(r, k int32, off int) {
			for _, l := range list.Labels[r : r+k] {
				putLabel(src.labels[off:], l)
				off += labelBytes
			}
		})
		if kind != Element {
			cols := [numPtrSegs][]int32{segFollowing: list.Following, segDescendant: list.Descendant}
			copy(cols[segChild0:], list.Children)
			for class, col := range cols[:segChild0+childCount] {
				lf.counts[class] = src.encode(class, col, kind)
			}
		}
		files[q] = newFlat(lf, src)
		files[q].seal()
	}
	return files, nil
}

// encode gives a paged source of labels only the pointer segment of class
// from col, one position per record, reduced per the list's scheme, and
// returns how many are non-null; a class with none gets no segment.
func (s *source) encode(class int, col []int32, kind Kind) int {
	n := 0
	for i, v := range col {
		if class < segChild0 {
			v = reduce(kind, v, int32(i))
		}
		if v != views.NoPointer {
			n++
		}
	}
	if n == 0 {
		return 0
	}
	seg := make([]byte, segBytes(s.n, ptrBytes, s.pageSize))
	s.runs(0, int32(s.n), ptrBytes, func(r, k int32, off int) {
		for i := r; i < r+k; i++ {
			v := col[i]
			if class < segChild0 {
				v = reduce(kind, v, i)
			}
			binary.LittleEndian.PutUint32(seg[off:], uint32(v))
			off += ptrBytes
		}
	})
	s.ptrs[class] = seg
	return n
}

// reduce applies the LEp heuristic (§III-C) to a following/descendant
// position: the pointer is kept only when the pointed record is more than
// one entry away. Linked keeps every pointer.
func reduce(kind Kind, pos, i int32) int32 {
	if kind == LinkedPartial && pos != views.NoPointer && pos <= i+1 {
		return views.NoPointer
	}
	return pos
}

// pointerRow returns record i's pointers as the list stores them, one per
// class: the positions the views layer computes (views.NoPointer for none,
// one child position per pattern child), reduced per the list's scheme.
// The element scheme stores none. Build and the Splicer both take pointers
// through here.
func (l *ListFile) pointerRow(i int32, following, descendant int32, children []int32) [numPtrSegs]int32 {
	row := nullRow
	if l.kind != Element {
		row[segFollowing] = reduce(l.kind, following, i)
		row[segDescendant] = reduce(l.kind, descendant, i)
		copy(row[segChild0:], children)
	}
	return row
}

// nullRow is a record's pointers when none is set.
var nullRow = [numPtrSegs]int32{-1, -1, -1, -1, -1, -1, -1, -1}

// seal finishes a list whose pointers are all counted: a pointer class
// without a non-null pointer has no segment in the image, and the list
// gets page identities of its own.
func (l *ListFile) seal() {
	l.mask = 0
	for class, n := range l.counts {
		if n > 0 {
			l.mask |= 1 << class
		}
	}
	l.token = tokenSeq.Add(1+numPtrSegs) - numPtrSegs
}
