package viewjoin

import (
	"math"
	"sort"
	"testing"
)

// selectionDoc is a small fixed document with known list sizes:
// a:1, b:2, c:3, d:1.
const selectionDoc = `<a><b><c/></b><b><c/><c/></b><d/></a>`

func selectionPool(t *testing.T, d *Document, viewsStr string) []*MaterializedView {
	t.Helper()
	patterns, err := ParseViews(viewsStr)
	if err != nil {
		t.Fatalf("ParseViews(%q): %v", viewsStr, err)
	}
	pool := make([]*MaterializedView, len(patterns))
	for i, p := range patterns {
		mv, err := d.MaterializeView(p, SchemeLE, nil)
		if err != nil {
			t.Fatalf("materialize %s: %v", p, err)
		}
		pool[i] = mv
	}
	return pool
}

// TestViewCostTable pins c(v,Q) = (1-λ)·Σ|L_q| + λ·Σ|L_q|·e_q on views
// whose list sizes and missing-edge counts are small enough to compute by
// hand, including the λ edge values 0 and +Inf.
func TestViewCostTable(t *testing.T) {
	d, err := ParseDocumentString(selectionDoc)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery("//a//b//c")
	cases := []struct {
		name    string
		view    string
		lambda  float64
		want    float64
		wantNaN bool
		wantErr bool
	}{
		// Whole-query view: every query edge precomputed, join term 0.
		{name: "whole query, scan only", view: "//a//b//c", lambda: 0, want: 6},
		{name: "whole query, join only", view: "//a//b//c", lambda: 1, want: 0},
		// Singleton //b: both of b's query edges remain, e_b = 2.
		{name: "singleton, scan only", view: "//b", lambda: 0, want: 2},
		{name: "singleton, join only", view: "//b", lambda: 1, want: 4},
		{name: "singleton, mixed", view: "//b", lambda: 0.5, want: 3},
		// //a//c bridges query node b: its one view edge precomputes no
		// query edge, so e_a = 1 and e_c = 1.
		{name: "bridging view, join only", view: "//a//c", lambda: 1, want: 4},
		// λ=+Inf mixes -Inf·scan with +Inf·join (or ·0): not finite, but
		// never an error — selection must tolerate the value, not reject it.
		{name: "infinite lambda", view: "//b", lambda: math.Inf(1), wantNaN: true},
		{name: "infinite lambda, zero join", view: "//a//b//c", lambda: math.Inf(1), wantNaN: true},
		// A view that is not a subpattern of Q cannot answer it.
		{name: "non-subpattern", view: "//d", lambda: 1, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mv, err := d.MaterializeView(MustParseQuery(tc.view), SchemeLE, nil)
			if err != nil {
				t.Fatal(err)
			}
			cost, err := ViewCost(mv, q, tc.lambda)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("ViewCost(%s, λ=%v) = %v, want error", tc.view, tc.lambda, cost)
				}
				return
			}
			if err != nil {
				t.Fatalf("ViewCost(%s, λ=%v): %v", tc.view, tc.lambda, err)
			}
			if tc.wantNaN {
				if !math.IsNaN(cost) {
					t.Fatalf("ViewCost(%s, λ=%v) = %v, want NaN", tc.view, tc.lambda, cost)
				}
				return
			}
			if cost != tc.want {
				t.Fatalf("ViewCost(%s, λ=%v) = %v, want %v", tc.view, tc.lambda, cost, tc.want)
			}
		})
	}
}

// TestSelectViewsTable drives SelectViews through its edge cases: an empty
// pool, a pool that cannot cover the query, λ at 0 and +Inf, and a pool
// polluted with non-subpattern views. Every successful selection must
// cover the query and answer it exactly.
func TestSelectViewsTable(t *testing.T) {
	d, err := ParseDocumentString(selectionDoc)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery("//a//b//c")
	want := EvaluateDirect(d, q)
	cases := []struct {
		name    string
		pool    string // semicolon-separated view patterns; "" = empty pool
		lambda  float64
		wantErr bool
	}{
		{name: "empty pool", pool: "", lambda: DefaultLambda, wantErr: true},
		{name: "non-covering pool", pool: "//a; //b", lambda: DefaultLambda, wantErr: true},
		{name: "only non-subpattern views", pool: "//d", lambda: DefaultLambda, wantErr: true},
		{name: "singletons, default lambda", pool: "//a; //b; //c", lambda: DefaultLambda},
		{name: "singletons, lambda zero", pool: "//a; //b; //c", lambda: 0},
		{name: "singletons, infinite lambda", pool: "//a; //b; //c", lambda: math.Inf(1)},
		{name: "mixed pool with non-subpattern", pool: "//d; //a//b; //c; //b", lambda: DefaultLambda},
		{name: "whole-query view wins", pool: "//a//b//c; //a; //b; //c", lambda: DefaultLambda},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var pool []*MaterializedView
			if tc.pool != "" {
				pool = selectionPool(t, d, tc.pool)
			}
			sel, err := SelectViews(pool, q, tc.lambda)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("SelectViews: expected error, got %d views", len(sel))
				}
				return
			}
			if err != nil {
				t.Fatalf("SelectViews: %v", err)
			}
			// The selection must cover every query label exactly once
			// (the paper's disjointness assumption).
			seen := map[string]int{}
			for _, v := range sel {
				for _, l := range v.Pattern().Labels() {
					seen[l]++
				}
			}
			for _, l := range q.Labels() {
				if seen[l] != 1 {
					t.Fatalf("label %q covered %d times in %v", l, seen[l], viewNames(sel))
				}
			}
			res, err := Evaluate(nil, d, q, sel, EngineViewJoin, nil)
			if err != nil {
				t.Fatalf("Evaluate with selection %v: %v", viewNames(sel), err)
			}
			if !sameMatches(res, want) {
				t.Fatalf("selection %v gives %d matches, oracle %d", viewNames(sel), len(res.Matches), len(want.Matches))
			}
		})
	}
}

// TestSelectViewsBySizeTable covers the size-only baseline's edge cases.
func TestSelectViewsBySizeTable(t *testing.T) {
	d, err := ParseDocumentString(selectionDoc)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery("//a//b//c")
	if _, err := SelectViewsBySize(nil, q); err == nil {
		t.Error("empty pool: expected error")
	}
	if _, err := SelectViewsBySize(selectionPool(t, d, "//a; //c"), q); err == nil {
		t.Error("non-covering pool: expected error")
	}
	sel, err := SelectViewsBySize(selectionPool(t, d, "//a; //b; //c; //a//b//c"), q)
	if err != nil {
		t.Fatal(err)
	}
	// The smallest-first baseline prefers the three singletons (sizes
	// 1, 2, 3) over the whole-query view (size 6).
	if got := viewNames(sel); len(got) != 3 {
		t.Fatalf("SelectViewsBySize = %v, want the three singletons", got)
	}
}

func viewNames(sel []*MaterializedView) []string {
	out := make([]string, len(sel))
	for i, v := range sel {
		out[i] = v.Pattern().String()
	}
	sort.Strings(out)
	return out
}
