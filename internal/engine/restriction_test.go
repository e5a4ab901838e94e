package engine

import (
	"testing"

	"viewjoin/internal/counters"
	"viewjoin/internal/store"
	"viewjoin/internal/tpq"
	"viewjoin/internal/views"
	"viewjoin/internal/xmltree"
)

func TestSpanEmptyContains(t *testing.T) {
	cases := []struct {
		s       Span
		empty   bool
		in, out []int32
	}{
		{s: Span{0, 0}, empty: true, out: []int32{0}},
		{s: Span{5, 5}, empty: true, out: []int32{4, 5, 6}},
		{s: Span{7, 3}, empty: true, out: []int32{3, 5, 7}},
		{s: Span{2, 6}, in: []int32{2, 3, 5}, out: []int32{1, 6, 7}},
	}
	for _, tc := range cases {
		if got := tc.s.Empty(); got != tc.empty {
			t.Errorf("Span%v.Empty() = %v, want %v", tc.s, got, tc.empty)
		}
		for _, v := range tc.in {
			if !tc.s.Contains(v) {
				t.Errorf("Span%v.Contains(%d) = false, want true", tc.s, v)
			}
		}
		for _, v := range tc.out {
			if tc.s.Contains(v) {
				t.Errorf("Span%v.Contains(%d) = true, want false", tc.s, v)
			}
		}
	}
}

func TestRestrictionSpanForAndAdmits(t *testing.T) {
	// Two spine nodes (0, 1) above a body of [10, 20).
	r := &Restriction{Spine: 2, Body: Span{10, 20}}

	if got := r.SpanFor(0); got != (Span{0, 20}) {
		t.Errorf("SpanFor(spine) = %v, want [0,20)", got)
	}
	if got := r.SpanFor(2); got != (Span{10, 20}) {
		t.Errorf("SpanFor(body) = %v, want [10,20)", got)
	}

	cases := []struct {
		name       string
		qi         int
		start, end int32
		want       bool
	}{
		// Spine nodes: region must overlap the body (ancestors of the
		// anchor binding satisfy start < Hi && end > Lo).
		{"spine containing body", 0, 0, 100, true},
		{"spine overlapping left edge", 1, 5, 11, true},
		{"spine ending at body start", 0, 5, 10, false},
		{"spine starting at body end", 0, 20, 30, false},
		{"spine inside body", 1, 12, 15, true},
		// Non-spine nodes: the start label must fall inside the body,
		// boundaries half-open.
		{"body first admitted start", 2, 10, 11, true},
		{"body last admitted start", 2, 19, 25, true},
		{"body start at Hi", 2, 20, 21, false},
		{"body start before Lo", 2, 9, 30, false},
	}
	for _, tc := range cases {
		if got := r.Admits(tc.qi, tc.start, tc.end); got != tc.want {
			t.Errorf("%s: Admits(%d, %d, %d) = %v, want %v",
				tc.name, tc.qi, tc.start, tc.end, got, tc.want)
		}
	}
}

// rangeList builds a single-node //e list over a small document, returning
// the list file for range-cursor tests.
func rangeList(t *testing.T) *store.ListFile {
	t.Helper()
	d, err := xmltree.ParseString(`<r><e/><a><e/><e/></a><e/><b><e/></b></r>`)
	if err != nil {
		t.Fatal(err)
	}
	m := views.MustMaterialize(d, tpq.MustParse("//e"))
	s := store.MustBuild(m, store.Element, 64)
	return s.Lists[0]
}

func TestResetCursor(t *testing.T) {
	l := rangeList(t)
	n := l.Entries()
	if n < 4 {
		t.Fatalf("need at least 4 records, have %d", n)
	}
	starts := make([]int32, n)
	for i := 0; i < n; i++ {
		starts[i] = l.LabelAt(i).Start
	}
	var c counters.Counters
	io := counters.NewIO(&c, 0)
	var cur store.ListCursor

	// nil restriction opens the whole list.
	ResetCursor(&cur, l, io, 0, nil)
	count := 0
	for cur.Valid() {
		count++
		cur.Next()
	}
	if count != n {
		t.Fatalf("nil restriction saw %d records, want %d", count, n)
	}

	// A body span admitting records 1..2 restricts a non-spine cursor to
	// exactly those.
	sp := Span{starts[1], starts[3]}
	r := &Restriction{Spine: 0, Body: sp}
	ResetCursor(&cur, l, io, 0, r)
	var seen []int32
	for cur.Valid() {
		seen = append(seen, cur.Start())
		cur.Next()
	}
	if len(seen) != 2 || seen[0] != starts[1] || seen[1] != starts[2] {
		t.Fatalf("restricted cursor saw %v, want [%d %d]", seen, starts[1], starts[2])
	}

	// A span past either end of the list clamps to an empty window.
	for _, sp := range []Span{{starts[n-1] + 1000, starts[n-1] + 2000}, {-100, starts[0]}} {
		ResetCursor(&cur, l, io, 0, &Restriction{Body: sp})
		if cur.Valid() {
			t.Errorf("out-of-range restriction %v: cursor should be invalid", sp)
		}
	}
}
