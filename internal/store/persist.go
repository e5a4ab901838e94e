package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"viewjoin/internal/tpq"
)

// On-disk container format (version 2) for a materialized view store:
//
//	magic "VJST", version byte, kind byte, pageSize u32,
//	pattern nodes (count u16, then per node: label, axis, parent index),
//	then the body header — tuple: arity u32, entries u32;
//	lists: count u32, per list {childCount u8, scoped u8, entries u32,
//	pointers u32, segMask u16} —
//	zero padding to the next page boundary,
//	then every segment's pages verbatim, in file order (per list: labels,
//	then present pointer classes ascending; segMask bit i set means
//	pointer class i has a segment).
//
// Segment lengths are fully derived from the header (entries, record
// width, page size), so the body carries no per-segment framing: loading
// slices each segment straight out of the input buffer with no per-record
// decoding, and the padding keeps every segment page-aligned in the file —
// the bytes on disk are the runtime representation (mmap-ready). The
// format is independent of host byte order (little-endian throughout) and
// self-contained: the view pattern is encoded structurally so node indices
// — which key the list files — survive exactly. It does not embed the
// document: a loaded store is only meaningful against the same document it
// was built from (the public API records a fingerprint).
const (
	persistMagic   = "VJST"
	persistVersion = 2
)

// maxEntries caps per-file record counts on load; far above any real
// workload, it bounds allocation from hostile headers.
const maxEntries = 1 << 27

// WriteTo serializes the store. It implements io.WriterTo.
func (s *ViewStore) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	write := func(v any) {
		if cw.err == nil {
			cw.err = binary.Write(cw, binary.LittleEndian, v)
		}
	}
	cw.WriteString(persistMagic)
	write(uint8(persistVersion))
	write(uint8(s.Kind))
	write(uint32(s.PageSize))
	// The pattern is encoded structurally (label, axis, parent per node) so
	// that node indices — which the list files are keyed by — survive
	// exactly, even for patterns not in parser-normalized order.
	write(uint16(s.View.Size()))
	for i := range s.View.Nodes {
		n := &s.View.Nodes[i]
		write(uint16(len(n.Label)))
		cw.WriteString(n.Label)
		write(uint8(n.Axis))
		write(int16(n.Parent))
	}

	if s.Kind == Tuple {
		write(uint32(s.Tuples.arity))
		write(uint32(s.Tuples.entries))
	} else {
		write(uint32(len(s.Lists)))
		for _, l := range s.Lists {
			write(uint8(l.childCount))
			write(boolByte(l.scoped))
			write(uint32(l.entries))
			write(uint32(l.pointers()))
			write(l.mask)
		}
	}
	// Pad the header to a page boundary so every segment is page-aligned in
	// the file.
	if pad := (s.PageSize - int(cw.n)%s.PageSize) % s.PageSize; pad > 0 && cw.err == nil {
		_, cw.err = cw.Write(make([]byte, pad))
	}
	for _, src := range s.Sources() {
		for _, seg := range src.segments() {
			if cw.err == nil {
				_, cw.err = cw.Write(seg)
			}
		}
	}
	if cw.err == nil {
		cw.err = cw.w.(*bufio.Writer).Flush()
	}
	return cw.n, cw.err
}

// ReadViewStoreBytes deserializes a store written by WriteTo from an
// in-memory (or memory-mapped) file image without copying or decoding
// records: after header validation, each flat segment is a slice of data,
// shared immutably. The caller must not mutate data afterwards. Pointer
// segments are verified to address only records inside their target
// lists, so following a pointer from a corrupted or hostile file can
// never read out of bounds at evaluation time.
func ReadViewStoreBytes(data []byte) (*ViewStore, error) {
	rd := &sliceReader{data: data}

	magic := rd.bytes(4, "magic")
	if rd.err != nil {
		return nil, rd.err
	}
	if string(magic) != persistMagic {
		return nil, fmt.Errorf("store: bad magic %q", magic)
	}
	version := rd.u8("version")
	if rd.err == nil && version != persistVersion {
		return nil, fmt.Errorf("store: unsupported version %d", version)
	}
	kind := Kind(rd.u8("kind"))
	if rd.err == nil && (kind < Tuple || kind > LinkedPartial) {
		return nil, fmt.Errorf("store: bad kind %d", kind)
	}
	pageSize := int(rd.u32("page size"))
	if rd.err != nil {
		return nil, rd.err
	}
	if pageSize < labelBytes || pageSize > 1<<20 {
		return nil, fmt.Errorf("store: bad page size %d", pageSize)
	}
	pat, err := readPattern(rd)
	if err != nil {
		return nil, err
	}

	s := &ViewStore{Kind: kind, View: pat, PageSize: pageSize}
	if kind == Tuple {
		return readTupleBody(rd, s)
	}
	return readListBody(rd, s)
}

func readPattern(rd *sliceReader) (*tpq.Pattern, error) {
	numNodes := int(rd.u16("pattern size"))
	if rd.err != nil {
		return nil, rd.err
	}
	if numNodes == 0 || numNodes > 1024 {
		return nil, fmt.Errorf("store: implausible pattern size %d", numNodes)
	}
	pat := &tpq.Pattern{Nodes: make([]tpq.Node, numNodes)}
	for i := range pat.Nodes {
		labelLen := int(rd.u16("label length"))
		label := rd.bytes(labelLen, "label")
		axis := rd.u8("axis")
		parent := int16(rd.u16("parent"))
		if rd.err != nil {
			return nil, rd.err
		}
		pat.Nodes[i] = tpq.Node{Label: string(label), Axis: tpq.Axis(axis), Parent: int(parent)}
		if parent >= 0 {
			if int(parent) >= i {
				return nil, fmt.Errorf("store: pattern node %d has forward parent %d", i, parent)
			}
			pat.Nodes[parent].Children = append(pat.Nodes[parent].Children, i)
		}
	}
	if err := pat.Validate(); err != nil {
		return nil, fmt.Errorf("store: stored pattern: %w", err)
	}
	return pat, nil
}

func readTupleBody(rd *sliceReader, s *ViewStore) (*ViewStore, error) {
	arity := int(rd.u32("tuple arity"))
	entries := int(rd.u32("tuple entries"))
	if rd.err != nil {
		return nil, rd.err
	}
	if arity != s.View.Size() {
		return nil, fmt.Errorf("store: tuple arity %d for %d-node pattern", arity, s.View.Size())
	}
	if entries > maxEntries {
		return nil, fmt.Errorf("store: implausible tuple count %d", entries)
	}
	recSize := arity * labelBytes
	if recSize > s.PageSize {
		return nil, fmt.Errorf("store: tuple record size %d exceeds page size %d", recSize, s.PageSize)
	}
	rd.pad(s.PageSize)
	f := &TupleFile{arity: arity, entries: entries}
	f.seg = adopt(rd.bytes(int(segBytes(entries, recSize, s.PageSize)), "tuple segment"),
		recSize, s.PageSize)
	if rd.err != nil {
		return nil, rd.err
	}
	if err := rd.end(); err != nil {
		return nil, err
	}
	s.Tuples = f
	return s, nil
}

// listHeader is one list's decoded body-header entry.
type listHeader struct {
	childCount int
	scoped     bool
	entries    int
	pointers   int
	segMask    uint16
}

func readListBody(rd *sliceReader, s *ViewStore) (*ViewStore, error) {
	pat := s.View
	numLists := int(rd.u32("list count"))
	if rd.err != nil {
		return nil, rd.err
	}
	if numLists != pat.Size() {
		return nil, fmt.Errorf("store: %d lists for %d-node pattern", numLists, pat.Size())
	}
	hdrs := make([]listHeader, numLists)
	for i := range hdrs {
		h := listHeader{
			childCount: int(rd.u8("child count")),
			scoped:     rd.u8("scoped flag") != 0,
			entries:    int(rd.u32("list entries")),
			pointers:   int(rd.u32("pointer count")),
			segMask:    rd.u16("segment mask"),
		}
		if rd.err != nil {
			return nil, rd.err
		}
		if h.childCount != len(pat.Nodes[i].Children) {
			return nil, fmt.Errorf("store: list %d has %d child pointers for %d pattern children",
				i, h.childCount, len(pat.Nodes[i].Children))
		}
		if h.childCount > MaxChildren {
			return nil, fmt.Errorf("store: list %d child count %d exceeds %d", i, h.childCount, MaxChildren)
		}
		if h.entries > maxEntries {
			return nil, fmt.Errorf("store: implausible entry count %d in list %d", h.entries, i)
		}
		if s.Kind == Element && h.segMask != 0 {
			return nil, fmt.Errorf("store: element-scheme list %d declares pointer segments %#x", i, h.segMask)
		}
		if h.entries == 0 && h.segMask != 0 {
			return nil, fmt.Errorf("store: empty list %d declares pointer segments %#x", i, h.segMask)
		}
		if hi := h.segMask >> (segChild0 + h.childCount); hi != 0 {
			return nil, fmt.Errorf("store: list %d declares out-of-range pointer segments %#x", i, h.segMask)
		}
		hdrs[i] = h
	}
	rd.pad(s.PageSize)

	s.Lists = make([]*ListFile, numLists)
	for i, h := range hdrs {
		src := source{n: h.entries, pageSize: s.PageSize}
		src.labels = rd.bytes(int(segBytes(h.entries, labelBytes, s.PageSize)), fmt.Sprintf("list %d labels", i))
		for class := 0; class < numPtrSegs; class++ {
			if h.segMask&(1<<class) != 0 {
				src.ptrs[class] = rd.bytes(int(segBytes(h.entries, ptrBytes, s.PageSize)),
					fmt.Sprintf("list %d pointer segment %d", i, class))
			}
		}
		if rd.err != nil {
			return nil, rd.err
		}
		s.Lists[i] = newFlat(ListFile{
			kind:       s.Kind,
			pageSize:   s.PageSize,
			childCount: h.childCount,
			scoped:     h.scoped,
			entries:    h.entries,
			mask:       h.segMask,
			token:      tokenSeq.Add(1+numPtrSegs) - numPtrSegs,
		}, src)
	}
	if err := rd.end(); err != nil {
		return nil, err
	}
	for q, l := range s.Lists {
		if err := s.validatePointers(q); err != nil {
			return nil, err
		}
		if n := l.pointers(); n != hdrs[q].pointers {
			return nil, fmt.Errorf("store: list %d holds %d pointers, header says %d", q, n, hdrs[q].pointers)
		}
	}
	return s, nil
}

// validatePointers checks every materialized pointer segment of loaded list
// q and counts its non-null pointers per class: each stored offset must be
// nil or address a record inside its target list. The scan touches only
// the pointer segments — the labels stay undecoded, preserving the
// zero-copy load — and runs in one pass per segment.
func (s *ViewStore) validatePointers(q int) error {
	l := s.Lists[q]
	if len(l.pieces) == 0 {
		return nil
	}
	src := l.pieces[0].src
	for class, seg := range src.ptrs {
		if seg == nil {
			continue
		}
		limit := int32(l.entries)
		if class >= segChild0 {
			limit = int32(s.Lists[s.View.Nodes[q].Children[class-segChild0]].entries)
		}
		for i := int32(0); i < int32(l.entries); i++ {
			v := int32(binary.LittleEndian.Uint32(seg[src.off(i, ptrBytes):]))
			if v == -1 {
				continue
			}
			if v < 0 || v >= limit {
				return fmt.Errorf("store: list %d record %d: pointer %d out of bounds [0,%d)",
					q, i, v, limit)
			}
			l.counts[class]++
		}
	}
	return nil
}

// sliceReader walks a byte buffer; short reads surface as
// io.ErrUnexpectedEOF-wrapped errors so the public persistence layer can
// fold them into ErrViewTruncated.
type sliceReader struct {
	data []byte
	off  int
	err  error
}

// bytes returns the next n bytes as a shared (not copied) sub-slice,
// capacity-capped so adopters cannot grow into neighbouring segments.
func (r *sliceReader) bytes(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.data) {
		r.err = fmt.Errorf("store: truncated reading %s: %w", what, io.ErrUnexpectedEOF)
		return nil
	}
	b := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

func (r *sliceReader) u8(what string) uint8 {
	b := r.bytes(1, what)
	if r.err != nil {
		return 0
	}
	return b[0]
}

func (r *sliceReader) u16(what string) uint16 {
	b := r.bytes(2, what)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *sliceReader) u32(what string) uint32 {
	b := r.bytes(4, what)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// pad skips to the next page boundary (where the segments start).
func (r *sliceReader) pad(pageSize int) {
	if n := (pageSize - r.off%pageSize) % pageSize; n > 0 {
		r.bytes(n, "header padding")
	}
}

// end verifies the whole buffer was consumed.
func (r *sliceReader) end() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("store: %d trailing bytes after store body", len(r.data)-r.off)
	}
	return nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}

func (c *countingWriter) WriteString(s string) {
	if c.err == nil {
		_, c.err = io.WriteString(c, s)
	}
}
