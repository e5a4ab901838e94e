package viewjoin

import (
	"testing"

	"viewjoin/internal/counters"
	"viewjoin/internal/dataset/nasa"
	"viewjoin/internal/engine"
	"viewjoin/internal/store"
	"viewjoin/internal/tpq"
	"viewjoin/internal/views"
	"viewjoin/internal/vsq"
	"viewjoin/internal/xmltree"
)

// measure runs ViewJoin over LE views and returns the counters plus the
// input size Σ|L_q| and the output size.
func measure(t testing.TB, d *xmltree.Document, q *tpq.Pattern, vs []*tpq.Pattern) (c counters.Counters, totalL, output int) {
	t.Helper()
	v, err := vsq.Build(q, vs)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]*store.ViewStore, len(vs))
	for i, vp := range vs {
		stores[i] = store.MustBuild(views.MustMaterialize(d, vp), store.Linked, 0)
		totalL += stores[i].TotalEntries()
	}
	ms, _, err := Eval(v, stores, counters.NewIO(&c, 0), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c, totalL, len(ms)
}

// TestLemma41IOBound checks the I/O side of the paper's Lemma 4.1:
// ViewJoin reads each input list at most once — elements scanned is
// O(Σ|L_q| + |output|). With probe dereferences re-decoding at most one
// record each, scans are bounded by Σ|L_q| + derefs.
func TestLemma41IOBound(t *testing.T) {
	d := nasa.Generate(nasa.Config{Datasets: 1200})
	cases := []struct{ q, vs string }{
		{"//field//footnote//para", "//field//para; //footnote"},
		{"//dataset//definition//footnote", "//dataset//footnote; //definition"},
		{"//dataset[//definition/footnote]//history//revision//para",
			"//dataset//revision//para; //definition/footnote; //history"},
	}
	for _, tc := range cases {
		q := tpq.MustParse(tc.q)
		vs := tpq.MustParseAll(tc.vs)
		c, totalL, _ := measure(t, d, q, vs)
		bound := int64(totalL) + c.PointerDerefs
		if c.ElementsScanned > bound {
			t.Errorf("%s: scanned %d > Σ|L_q| + derefs = %d", tc.q, c.ElementsScanned, bound)
		}
	}
}

// TestLemma41TimeBoundScaling checks the time side empirically: on
// documents growing k-fold, comparisons grow at most linearly in
// Σ|L_q| + |output| (the lemma's O(Σ|L_q|·e_q + |output|) with constant
// e_q), i.e. the per-unit ratio stays bounded.
func TestLemma41TimeBoundScaling(t *testing.T) {
	q := tpq.MustParse("//field//footnote//para")
	vs := tpq.MustParseAll("//field//para; //footnote")
	type point struct{ unit, cmp float64 }
	var pts []point
	for _, n := range []int{400, 800, 1600, 3200} {
		d := nasa.Generate(nasa.Config{Datasets: n})
		c, totalL, out := measure(t, d, q, vs)
		pts = append(pts, point{float64(totalL + out), float64(c.Comparisons)})
	}
	base := pts[0].cmp / pts[0].unit
	for i, p := range pts[1:] {
		ratio := p.cmp / p.unit
		if ratio > 2*base {
			t.Errorf("comparisons per input+output unit grew from %.2f to %.2f at step %d — superlinear",
				base, ratio, i+1)
		}
	}
}

// TestDeepRecursionStress: a pathological 3000-deep chain of alternating
// elements; all engines must survive (Go stacks grow) and agree.
func TestDeepRecursionStress(t *testing.T) {
	const depth = 3000
	b := xmltree.NewBuilder()
	var rec func(i int)
	rec = func(i int) {
		if i == depth {
			b.Leaf("z")
			return
		}
		name := "a"
		if i%2 == 1 {
			name = "b"
		}
		b.Element(name, func() { rec(i + 1) })
	}
	b.Element("r", func() { rec(0) })
	d := b.MustDocument()

	q := tpq.MustParse("//a//b//z")
	vs := tpq.MustParseAll("//a//z; //b")
	got, _, c := evalWith(t, d, q, vs, store.Linked, engine.Options{})
	// a appears 1500 times, b 1500 times, z once, all nested: every (a, b)
	// pair with a above b pairs with z.
	want := 0
	for ai := 0; ai < depth/2; ai++ {
		want += depth/2 - ai
	}
	if len(got) != want {
		t.Fatalf("matches = %d, want %d", len(got), want)
	}
	if c.ElementsScanned == 0 {
		t.Fatal("no work recorded")
	}
}
