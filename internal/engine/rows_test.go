package engine

import (
	"math/rand"
	"sort"
	"testing"

	"viewjoin/internal/match"
	"viewjoin/internal/store"
	"viewjoin/internal/tpq"
)

func labelsAt(start int32, width int) []store.Label {
	ls := make([]store.Label, width)
	for k := range ls {
		ls[k] = store.Label{Start: start + int32(k), End: start + int32(k) + 100, Level: int32(k)}
	}
	return ls
}

// chunkRows lists how many rows each chunk r has opened can hold.
func chunkRows(r *Rows) []int {
	var sizes []int
	for _, chunk := range r.chunks {
		sizes = append(sizes, len(chunk)/r.w)
	}
	return sizes
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRowsChunkGeometry(t *testing.T) {
	q := tpq.MustParse("//a//b[//c]//d") // width 4: 1365 rows fill a capped chunk
	const n = 3000
	r := NewRows(q, 0)
	for i := 0; i < n; i++ {
		r.Append(labelsAt(int32(10*i+1), q.Size()))
	}
	if r.Len() != n {
		t.Fatalf("Len = %d, want %d", r.Len(), n)
	}
	if got, want := chunkRows(&r), []int{16, 32, 64, 128, 256, 512, 1024, 1365}; !equalInts(got, want) {
		t.Fatalf("chunks hold %v rows, want %v", got, want)
	}
	chunks := r.chunks
	rows := r.Take()
	if r.Len() != 0 || len(rows) != n {
		t.Fatalf("Take returned %d rows and left %d behind", len(rows), r.Len())
	}
	at := 0 // rows must tile the chunks in write order, none spanning two
	for i, row := range rows {
		if len(row) != q.Size() || cap(row) != q.Size() {
			t.Fatalf("row %d: len %d cap %d, want both %d (full-slice-capped)", i, len(row), cap(row), q.Size())
		}
		if len(chunks[0]) < (at+1)*q.Size() {
			chunks, at = chunks[1:], 0
		}
		if &row[0] != &chunks[0][at*q.Size()] {
			t.Fatalf("row %d is not row %d of its chunk", i, at)
		}
		at++
		for k, c := range row {
			want := match.Cell{Start: int32(10*i+1) + int32(k), End: int32(10*i+1) + int32(k) + 100, Level: int32(k)}
			if c != want {
				t.Fatalf("row %d cell %d = %+v, want %+v", i, k, c, want)
			}
		}
	}
}

func TestRowsQuotaSizesFirstChunk(t *testing.T) {
	q := tpq.MustParse("//a//b")
	labels := labelsAt(1, 2)
	allocs := testing.AllocsPerRun(10, func() {
		r := NewRows(q, 20)
		for i := 0; i < 20; i++ {
			r.Append(labels)
		}
		if len(r.chunks) != 1 || len(r.chunks[0]) != 20*2 {
			t.Fatalf("a 20-row page over a quota of 20 opened %d chunks", len(r.chunks))
		}
		if rows := r.Take(); len(rows) != 20 || cap(rows) != 20 {
			t.Fatalf("header slice has len %d, cap %d, want 20", len(rows), cap(rows))
		}
	})
	if allocs != 3 {
		t.Errorf("a 20-row page allocated %.0f times, want 3: its chunk, the chunk list and the header slice", allocs)
	}
}

// TestRowsStageIsOverwritten keeps its name from when Rows had a Stage — a
// slot the next write overwrote. What is left to pin is the other half:
// Append copies the enumeration's template, so rewriting the template for
// the next match leaves every kept row alone.
func TestRowsStageIsOverwritten(t *testing.T) {
	q := tpq.MustParse("//a//b")
	r := NewRows(q, 0)
	template := labelsAt(7, 2)
	r.Append(template)
	template[0].Start = 9
	r.Append(template)
	rows := r.Take()
	if len(rows) != 2 || rows[0][0].Start != 7 || rows[1][0].Start != 9 {
		t.Fatal("a row kept with Append must survive the template's next binding")
	}
	if &rows[0][0] == &template[0] || &rows[1][0] == &template[0] {
		t.Fatal("Take must hand over copies, not the template")
	}
}

func TestRowsSortedAndShrink(t *testing.T) {
	q := tpq.MustParse("//a//b")
	rng := rand.New(rand.NewSource(1))
	fill := func(r *Rows) (starts []int) {
		for i := 0; i < 200; i++ {
			s := rng.Intn(1000) + 1
			starts = append(starts, s)
			r.Append([]store.Label{{Start: 1, End: 5000}, {Start: int32(s), End: int32(s) + 1, Level: 1}})
		}
		sort.Ints(starts)
		return starts
	}
	check := func(rows [][]match.Cell, starts []int) {
		t.Helper()
		if len(rows) != len(starts) {
			t.Fatalf("%d rows, want %d", len(rows), len(starts))
		}
		for i, row := range rows {
			if int(row[1].Start) != starts[i] {
				t.Fatalf("row %d starts at %d, want %d", i, row[1].Start, starts[i])
			}
		}
	}

	r := NewRows(q, 0)
	starts := fill(&r)
	check(r.Sorted(0), starts)
	if r.Len() != 0 {
		t.Fatalf("Sorted left %d rows behind", r.Len())
	}
	starts = fill(&r)
	check(r.Sorted(5), starts[:5])

	// Shrink mid-accumulation: the survivors move to one fresh chunk, the
	// old chunks are let go, and appending continues.
	starts = fill(&r)
	old := r.chunks[0]
	r.Shrink(5)
	if r.Len() != 5 || len(r.chunks) != 1 || &r.chunks[0][0] == &old[0] {
		t.Fatalf("Shrink kept %d rows in %d chunks", r.Len(), len(r.chunks))
	}
	r.Append([]store.Label{{Start: 1, End: 5000}, {Start: 0, End: 1, Level: 1}})
	check(r.Sorted(0), append([]int{0}, starts[:5]...))
}
