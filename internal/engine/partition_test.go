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

func TestMergeSpans(t *testing.T) {
	cases := []struct {
		name string
		in   []Span
		want []Span
	}{
		{name: "nil", in: nil, want: nil},
		{name: "all empty", in: []Span{{3, 3}, {5, 2}}, want: nil},
		{name: "single", in: []Span{{1, 4}}, want: []Span{{1, 4}}},
		{name: "disjoint stay split", in: []Span{{1, 3}, {5, 8}}, want: []Span{{1, 3}, {5, 8}}},
		{name: "adjacent stay split", in: []Span{{1, 3}, {3, 6}}, want: []Span{{1, 3}, {3, 6}}},
		{name: "overlapping merge", in: []Span{{1, 5}, {4, 9}}, want: []Span{{1, 9}}},
		{name: "nested merge", in: []Span{{1, 9}, {3, 5}}, want: []Span{{1, 9}}},
		{name: "unsorted input", in: []Span{{7, 9}, {0, 2}, {1, 5}}, want: []Span{{0, 5}, {7, 9}}},
		{name: "duplicates", in: []Span{{2, 4}, {2, 4}}, want: []Span{{2, 4}}},
		{name: "empty among real", in: []Span{{4, 4}, {1, 3}, {6, 6}}, want: []Span{{1, 3}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := MergeSpans(append([]Span(nil), tc.in...))
			if len(got) != len(tc.want) {
				t.Fatalf("MergeSpans = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("MergeSpans = %v, want %v", got, tc.want)
				}
			}
		})
	}
}

func TestCoalesceSpans(t *testing.T) {
	uniform := func(Span) int64 { return 1 }
	width := func(s Span) int64 { return int64(s.Hi - s.Lo) }
	zero := func(Span) int64 { return 0 }
	four := []Span{{0, 10}, {20, 30}, {40, 50}, {60, 70}}

	cases := []struct {
		name   string
		in     []Span
		weight func(Span) int64
		k      int
		want   []Span
	}{
		{name: "empty", in: nil, weight: uniform, k: 3, want: nil},
		{name: "k=1 collapses", in: four, weight: uniform, k: 1, want: []Span{{0, 70}}},
		{name: "k=0 collapses", in: four, weight: uniform, k: 0, want: []Span{{0, 70}}},
		{name: "k beyond spans clamps", in: four, weight: uniform, k: 9,
			want: []Span{{0, 10}, {20, 30}, {40, 50}, {60, 70}}},
		{name: "uniform split", in: four, weight: uniform, k: 2,
			want: []Span{{0, 30}, {40, 70}}},
		{name: "zero weights balance counts", in: four, weight: zero, k: 2,
			want: []Span{{0, 30}, {40, 70}}},
		// One huge leading span takes a whole chunk; the rest share.
		{name: "skewed weights", in: []Span{{0, 100}, {200, 210}, {220, 230}, {240, 250}},
			weight: width, k: 2, want: []Span{{0, 100}, {200, 250}}},
		// Chunks never exceed k even when the fair share is tiny.
		{name: "trailing spans folded into last chunk", in: four, weight: uniform, k: 3,
			want: []Span{{0, 10}, {20, 30}, {40, 70}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := CoalesceSpans(append([]Span(nil), tc.in...), tc.weight, tc.k)
			if len(got) != len(tc.want) {
				t.Fatalf("CoalesceSpans = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("CoalesceSpans = %v, want %v", got, tc.want)
				}
			}
			// Structural invariants: document-ordered, disjoint, covering
			// the input's extent.
			for i := 1; i < len(got); i++ {
				if got[i].Lo < got[i-1].Hi {
					t.Fatalf("chunks overlap or regress: %v", got)
				}
			}
			if len(tc.in) > 0 {
				if got[0].Lo != tc.in[0].Lo || got[len(got)-1].Hi != tc.in[len(tc.in)-1].Hi {
					t.Fatalf("chunks %v do not span input %v", got, tc.in)
				}
			}
		})
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

func TestResetCursorAndCountInSpan(t *testing.T) {
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
	// exactly those, and CountInSpan agrees.
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
	if got := CountInSpan(l, sp); got != 2 {
		t.Fatalf("CountInSpan = %d, want 2", got)
	}

	// A span past either end of the list clamps to an empty window.
	ResetCursor(&cur, l, io, 0, &Restriction{Body: Span{starts[n-1] + 1000, starts[n-1] + 2000}})
	if cur.Valid() {
		t.Error("out-of-range restriction: cursor should be invalid")
	}
	if got := CountInSpan(l, Span{-100, starts[0]}); got != 0 {
		t.Fatalf("CountInSpan before list = %d, want 0", got)
	}
}
