package pathstack

import (
	"math/rand"
	"testing"
	"testing/quick"

	"viewjoin/internal/counters"
	"viewjoin/internal/engine"
	"viewjoin/internal/match"
	"viewjoin/internal/oracle"
	"viewjoin/internal/store"
	"viewjoin/internal/testutil"
	"viewjoin/internal/tpq"
	"viewjoin/internal/views"
	"viewjoin/internal/vsq"
	"viewjoin/internal/xmltree"
)

func evalWith(t testing.TB, d *xmltree.Document, q *tpq.Pattern, vs []*tpq.Pattern,
	kind store.Kind) (match.Set, counters.Counters) {
	t.Helper()
	v, err := vsq.Build(q, vs)
	if err != nil {
		t.Fatalf("vsq.Build: %v", err)
	}
	stores := make([]*store.ViewStore, len(vs))
	for i, vp := range vs {
		stores[i] = store.MustBuild(views.MustMaterialize(d, vp), kind, 256)
	}
	lists, err := engine.BindLists(v, stores)
	if err != nil {
		t.Fatalf("BindLists: %v", err)
	}
	var c counters.Counters
	got, err := Eval(q, lists, counters.NewIO(&c, 0), engine.Options{})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	return testutil.RowsToSet(t, d, got), c
}

func mustDoc(t testing.TB, src string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSimplePaths(t *testing.T) {
	d := mustDoc(t, `<r><a><b/><b><c/></b></a><a><c/><b><b/><c/></b></a></r>`)
	for _, qs := range []string{"//a", "//a//b", "//a//b//c", "//a/b/c", "//a//c", "//b//c", "//r//a//b//c"} {
		q := tpq.MustParse(qs)
		want := oracle.Eval(d, q)
		got, _ := evalWith(t, d, q, testutil.SingletonViews(q), store.Element)
		if !got.SameAs(want) {
			t.Errorf("%s: got %d matches, want %d", qs, len(got), len(want))
		}
	}
}

func TestNestedRecursion(t *testing.T) {
	// Deeply nested same-type elements: the stress case for stack expansion.
	d := mustDoc(t, `<a><a><a><b/></a><b/></a></a>`)
	q := tpq.MustParse("//a//b")
	want := oracle.Eval(d, q) // 2 b's, nested a's: 3+2 wait — compute via oracle
	got, _ := evalWith(t, d, q, testutil.SingletonViews(q), store.Element)
	if !got.SameAs(want) {
		t.Fatalf("got %d matches, want %d", len(got), len(want))
	}
}

func TestRootAxis(t *testing.T) {
	d := mustDoc(t, `<a><a><b/></a></a>`)
	q := tpq.MustParse("/a//b")
	want := oracle.Eval(d, q)
	got, _ := evalWith(t, d, q, testutil.SingletonViews(q), store.Element)
	if !got.SameAs(want) {
		t.Fatalf("/a//b: got %d matches, want %d", len(got), len(want))
	}
}

func TestRejectsTwigQueries(t *testing.T) {
	q := tpq.MustParse("//a[//b]//c")
	var c counters.Counters
	if _, err := Eval(q, make([]*store.ListFile, q.Size()), counters.NewIO(&c, 0), engine.Options{}); err == nil {
		t.Fatalf("expected error for twig query")
	}
}

func TestViewsReduceScans(t *testing.T) {
	d := mustDoc(t, `<r><a><b><c/></b></a><a/><b/><c/><c/></r>`)
	q := tpq.MustParse("//a//b//c")
	_, cRaw := evalWith(t, d, q, testutil.SingletonViews(q), store.Element)
	_, cView := evalWith(t, d, q, testutil.WholeQueryView(q), store.Element)
	if cView.ElementsScanned >= cRaw.ElementsScanned {
		t.Errorf("views should reduce scans: %d vs %d", cView.ElementsScanned, cRaw.ElementsScanned)
	}
}

// TestAgainstOracleProperty validates PathStack on random path queries and
// random path-view factorizations, across storage schemes.
func TestAgainstOracleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := testutil.RandomDoc(rng, 120, nil)
		q := randomPath(rng, 5)
		var vs []*tpq.Pattern
		switch rng.Intn(3) {
		case 0:
			vs = testutil.SingletonViews(q)
		case 1:
			vs = testutil.PathChunkViews(q, 1+rng.Intn(3))
		default:
			vs = testutil.InterleavedPathViews(q, 1+rng.Intn(2))
		}
		kind := []store.Kind{store.Element, store.Linked, store.LinkedPartial}[rng.Intn(3)]
		want := oracle.Eval(d, q)
		got, _ := evalWith(t, d, q, vs, kind)
		if !got.SameAs(want) {
			t.Logf("seed=%d q=%s views=%v: got %d, want %d", seed, q, vs, len(got), len(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// randomPath builds a random path pattern with unique labels.
func randomPath(rng *rand.Rand, maxNodes int) *tpq.Pattern {
	n := 1 + rng.Intn(maxNodes)
	perm := rng.Perm(len(testutil.Labels))[:n]
	p := &tpq.Pattern{}
	for i := 0; i < n; i++ {
		node := tpq.Node{Label: testutil.Labels[perm[i]], Axis: tpq.Descendant, Parent: i - 1}
		if i > 0 && rng.Intn(2) == 0 {
			node.Axis = tpq.Child
		}
		p.Nodes = append(p.Nodes, node)
		if i > 0 {
			p.Nodes[i-1].Children = []int{i}
		}
	}
	return p
}
