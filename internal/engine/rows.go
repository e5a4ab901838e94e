package engine

import (
	"sort"

	"viewjoin/internal/match"
	"viewjoin/internal/tpq"
)

// Chunk geometry of a run's result: the first chunk holds the run's output
// quota when it has one (a page allocates exactly its rows) and
// firstChunkRows otherwise; each later chunk doubles, keeping allocations
// logarithmic in the match count, up to maxChunkCells, which bounds what a
// result's unfilled last chunk can waste.
const (
	firstChunkRows = 16
	maxChunkCells  = 64 << 10 / 12 // 64 KiB of 12-byte cells
)

// Rows accumulates the result rows of one run. Every row is written once —
// copied from the enumeration stage's template row, or from the region
// labels a stack engine holds — into chunks allocated fresh for the run and
// never copied or reused; a row never spans two chunks. A chunk holds no
// pointer, so the collector allocates it unscanned. The header slice the
// caller finally owns is built once, at its exact size, on hand-over (Take,
// Sorted). Only the Rows value itself may live in pooled scratch.
type Rows struct {
	w      int            // cells per row: the query's size
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
	return Rows{w: q.Size(), next: first}
}

// slot returns the next unwritten row, opening a chunk when the current one
// is full.
func (r *Rows) slot() []match.Cell {
	w := r.w
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

// Append keeps a copy of row: row[i] binds query node i (a stack engine's
// labels, or the enumeration's template).
func (r *Rows) Append(row []match.Cell) {
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
	w := r.w
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
		r.Append(row)
	}
}

// AfterCursor reports whether the start tuple of row — a stack engine's
// labels, or the enumeration's template — is strictly greater than the
// resumption cursor after (Options.After), one start per query node compared
// lexicographically, i.e. whether the row falls after the page the cursor
// closed.
func AfterCursor(row []match.Cell, after []int32) bool {
	for k := range after {
		if s := row[k].Start; s != after[k] {
			return s > after[k]
		}
	}
	return false // exactly the cursor row: already delivered
}
