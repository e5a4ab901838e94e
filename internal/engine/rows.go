package engine

import (
	"sort"

	"viewjoin/internal/match"
	"viewjoin/internal/store"
	"viewjoin/internal/tpq"
)

// Chunk geometry of a run's result: the first chunk holds the run's output
// quota when it has one (a page allocates exactly its rows) and
// firstChunkRows otherwise; each later chunk doubles, keeping allocations
// logarithmic in the match count, up to maxChunkCells, which bounds what a
// result's unfilled last chunk can waste.
const (
	firstChunkRows = 16
	maxChunkCells  = 2048 // 64 KiB of cells
)

// Rows accumulates the result rows of one run. Every row is written once —
// copied from the enumeration stage's template row, or spelled out from the
// region labels a stack engine holds and the query's tags — into chunks
// allocated fresh for the run and never copied or reused; a row never spans
// two chunks. The header slice the caller finally owns is built once, at
// its exact size, on hand-over (Take, Sorted). Only the Rows value itself
// may live in pooled scratch.
type Rows struct {
	nodes  []tpq.Node     // one per column: the tag source
	chunks [][]match.Cell // in write order; all but the last are full
	free   []match.Cell   // unwritten tail of the last chunk
	n      int            // rows kept
	next   int            // rows the next chunk holds
}

// NewRows returns an empty result for query q. first > 0 is the run's
// output quota and sizes the first chunk.
func NewRows(q *tpq.Pattern, first int) Rows {
	if first <= 0 {
		first = firstChunkRows
	}
	return Rows{nodes: q.Nodes, next: first}
}

// slot returns the next unwritten row, opening a chunk when the current one
// is full.
func (r *Rows) slot() []match.Cell {
	w := len(r.nodes)
	if len(r.free) < w {
		n := min(r.next, max(1, maxChunkCells/w))
		r.free = make([]match.Cell, n*w)
		r.chunks = append(r.chunks, r.free)
		r.next = 2 * n
	}
	return r.free[:w:w]
}

func (r *Rows) commit(row []match.Cell) {
	r.free = r.free[len(row):]
	r.n++
}

// Append writes one row — labels[i] binds query node i — and keeps it.
func (r *Rows) Append(labels []store.Label) {
	row := r.slot()
	for k, l := range labels {
		row[k] = match.Cell{Tag: r.nodes[k].Label, Start: l.Start, End: l.End, Level: l.Level}
	}
	r.commit(row)
}

// AppendRow keeps a copy of row (the enumeration's template).
func (r *Rows) AppendRow(row []match.Cell) {
	dst := r.slot()
	copy(dst, row)
	r.commit(dst)
}

// Len returns the number of rows kept.
func (r *Rows) Len() int { return r.n }

// Take hands the kept rows, in the order written, to the caller and empties
// r: one capacity-capped window per row over the chunks.
func (r *Rows) Take() [][]match.Cell {
	if r.n == 0 {
		return nil
	}
	rows := make([][]match.Cell, 0, r.n)
	w := len(r.nodes)
	for _, chunk := range r.chunks {
		for ; len(chunk) >= w && len(rows) < r.n; chunk = chunk[w:] {
			rows = append(rows, chunk[:w:w])
		}
	}
	r.chunks, r.free, r.n = nil, nil, 0
	return rows
}

// Sorted is Take with the rows ordered by start tuple — document order,
// the order the window-collector engines emit natively — and, under an
// output quota (first > 0), cut to the first smallest.
func (r *Rows) Sorted(first int) [][]match.Cell {
	rows := r.Take()
	sort.Slice(rows, func(i, j int) bool { return match.RowLess(rows[i], rows[j]) })
	if first > 0 && len(rows) > first {
		rows = rows[:first]
	}
	return rows
}

// Shrink keeps only the first smallest rows, copied into a fresh chunk so
// the dropped rows' chunks are released: an accumulation that shrinks
// whenever it has grown past a multiple of its quota stays O(first).
func (r *Rows) Shrink(first int) {
	keep := r.Sorted(first)
	r.next = first
	for _, row := range keep {
		r.AppendRow(row)
	}
}

// AfterCursor reports whether the start tuple of labels is strictly
// greater than the resumption cursor after (Options.After), one start per
// query node compared lexicographically — i.e. whether the row falls after
// the page the cursor closed.
func AfterCursor(labels []store.Label, after []int32) bool {
	for k := range after {
		if s := labels[k].Start; s != after[k] {
			return s > after[k]
		}
	}
	return false // exactly the cursor row: already delivered
}

// RowAfterCursor is AfterCursor for a row already spelled out in cells.
func RowAfterCursor(row []match.Cell, after []int32) bool {
	for k := range after {
		if s := row[k].Start; s != after[k] {
			return s > after[k]
		}
	}
	return false
}
