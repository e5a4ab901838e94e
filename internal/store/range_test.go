package store

import (
	"testing"

	"viewjoin/internal/counters"
	"viewjoin/internal/tpq"
	"viewjoin/internal/views"
)

// rangeFixture builds the //a//e list of the Fig 1 document with tiny pages
// (multi-page, so range windows cross page boundaries) and returns the list
// plus its start labels in record order.
func rangeFixture(t *testing.T, kind Kind) (*ListFile, []int32) {
	t.Helper()
	d := fig1Doc(t)
	m := views.MustMaterialize(d, tpq.MustParse("//a//e"))
	s := MustBuild(m, kind, 128)
	l := s.Lists[1] // the e list
	starts := make([]int32, l.Entries())
	for i := range starts {
		starts[i] = l.LabelAt(i).Start
	}
	return l, starts
}

func TestSeekStart(t *testing.T) {
	l, starts := rangeFixture(t, Element)
	n := len(starts)
	if n < 3 {
		t.Fatalf("fixture too small: %d records", n)
	}
	// SeekStart returns the first record offset with Start >= s: exact
	// hits land on the record, gaps land on the successor, and both ends
	// clamp to the list bounds.
	for i, s := range starts {
		if got := l.SeekStart(s); got != i {
			t.Errorf("SeekStart(%d) = %d, want %d (exact)", s, got, i)
		}
		if got := l.SeekStart(s + 1); got != i+1 && (i+1 >= n || starts[i+1] != s+1) {
			// s+1 is past record i; unless it is exactly the next start,
			// the answer is i+1.
			t.Errorf("SeekStart(%d) = %d, want %d (successor)", s+1, got, i+1)
		}
	}
	if got := l.SeekStart(-1000); got != 0 {
		t.Errorf("SeekStart(min) = %d, want 0", got)
	}
	if got := l.SeekStart(starts[n-1] + 1000); got != n {
		t.Errorf("SeekStart(max) = %d, want %d", got, n)
	}
}

func TestResetRangeWindows(t *testing.T) {
	l, starts := rangeFixture(t, Element)
	n := len(starts)
	var c counters.Counters
	io := counters.NewIO(&c, 0)
	var cur ListCursor

	cases := []struct {
		name   string
		lo, hi int
		want   []int32 // expected start labels, nil = invalid cursor
	}{
		{name: "full list", lo: 0, hi: n, want: starts},
		{name: "interior window", lo: 1, hi: n - 1, want: starts[1 : n-1]},
		{name: "single record", lo: 2, hi: 3, want: starts[2:3]},
		{name: "empty window", lo: 2, hi: 2, want: nil},
		{name: "inverted window", lo: 3, hi: 1, want: nil},
		{name: "bounds clipped to list", lo: -5, hi: n + 5, want: starts},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur.ResetRange(l, io, tc.lo, tc.hi)
			var got []int32
			for cur.Valid() {
				got = append(got, cur.Start())
				cur.Next()
			}
			if len(got) != len(tc.want) {
				t.Fatalf("window [%d,%d) read %v, want %v", tc.lo, tc.hi, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("window [%d,%d) read %v, want %v", tc.lo, tc.hi, got, tc.want)
				}
			}
		})
	}
}

func TestSeekClampsToWindow(t *testing.T) {
	l, starts := rangeFixture(t, Element)
	n := len(starts)
	if n < 4 {
		t.Fatalf("fixture too small: %d records", n)
	}
	var c counters.Counters
	io := counters.NewIO(&c, 0)
	var cur ListCursor
	cur.ResetRange(l, io, 1, n-1)

	// A pointer below the window clamps to the window's first record.
	cur.Seek(Pointer(0))
	if !cur.Valid() || int(cur.Position()) != 1 {
		t.Fatalf("Seek below window: ordinal %d valid=%v, want clamp to 1", int(cur.Position()), cur.Valid())
	}
	// A pointer inside the window lands exactly.
	cur.Seek(Pointer(n - 2))
	if !cur.Valid() || int(cur.Position()) != n-2 {
		t.Fatalf("Seek inside window: ordinal %d valid=%v, want %d", int(cur.Position()), cur.Valid(), n-2)
	}
	// A pointer at or past the window's end invalidates, as does nil.
	cur.Seek(Pointer(n - 1))
	if cur.Valid() {
		t.Fatal("Seek at window end: cursor should be invalid")
	}
	cur.ResetRange(l, io, 1, n-1)
	cur.Seek(NilPointer)
	if cur.Valid() {
		t.Fatal("Seek(nil): cursor should be invalid")
	}
}
