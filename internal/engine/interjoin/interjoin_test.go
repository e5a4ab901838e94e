package interjoin

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
	"viewjoin/internal/xmltree"
)

func evalWith(t testing.TB, d *xmltree.Document, q *tpq.Pattern, vs []*tpq.Pattern) (match.Set, counters.Counters) {
	t.Helper()
	stores := make([]*store.ViewStore, len(vs))
	viewPos := make([][]int, len(vs))
	for i, vp := range vs {
		stores[i] = store.MustBuild(views.MustMaterialize(d, vp), store.Tuple, 256)
		m, err := tpq.QueryNodeOfView(vp, q)
		if err != nil {
			t.Fatalf("QueryNodeOfView: %v", err)
		}
		viewPos[i] = m
	}
	var c counters.Counters
	got, err := Eval(q, stores, viewPos, counters.NewIO(&c, 0), engine.Options{})
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

func TestSingleWholeView(t *testing.T) {
	d := mustDoc(t, `<r><a><b><c/></b><c/></a><a><b/></a></r>`)
	q := tpq.MustParse("//a//b//c")
	want := oracle.Eval(d, q)
	got, _ := evalWith(t, d, q, testutil.WholeQueryView(q))
	if !got.SameAs(want) {
		t.Fatalf("got %d matches, want %d", len(got), len(want))
	}
}

// TestInterleavedViews is the paper's motivating InterJoin case: answer
// //a//b//c from the interleaving views //a//c and //b.
func TestInterleavedViews(t *testing.T) {
	d := mustDoc(t, `<r><a><b><c/><c/></b></a><a><c/></a><b><a><b><c/></b></a></b></r>`)
	q := tpq.MustParse("//a//b//c")
	want := oracle.Eval(d, q)
	got, _ := evalWith(t, d, q, tpq.MustParseAll("//a//c; //b"))
	if !got.SameAs(want) {
		t.Fatalf("got %d matches, want %d", len(got), len(want))
	}
}

func TestPCEdgeVerification(t *testing.T) {
	d := mustDoc(t, `<r><a><b><c/></b><x><b/></x></a></r>`)
	q := tpq.MustParse("//a/b/c")
	want := oracle.Eval(d, q)
	// Views use ad-edges (subpatterns of the pc query); InterJoin must
	// verify levels at output.
	got, _ := evalWith(t, d, q, tpq.MustParseAll("//a//c; //b"))
	if !got.SameAs(want) {
		t.Fatalf("got %d matches, want %d", len(got), len(want))
	}
}

func TestThreeViews(t *testing.T) {
	d := mustDoc(t, `<r><a><b><c><d/></c></b><d/></a></r>`)
	q := tpq.MustParse("//a//b//c//d")
	want := oracle.Eval(d, q)
	got, _ := evalWith(t, d, q, tpq.MustParseAll("//a//d; //b; //c"))
	if !got.SameAs(want) {
		t.Fatalf("got %d matches, want %d", len(got), len(want))
	}
}

func TestEmptyViews(t *testing.T) {
	d := mustDoc(t, `<r><a/><c/></r>`)
	q := tpq.MustParse("//a//c")
	got, _ := evalWith(t, d, q, tpq.MustParseAll("//a; //c"))
	if len(got) != 0 {
		t.Fatalf("got %d matches, want 0", len(got))
	}
}

func TestErrors(t *testing.T) {
	d := mustDoc(t, `<r><a/></r>`)
	var c counters.Counters
	io := counters.NewIO(&c, 0)
	if _, err := Eval(tpq.MustParse("//a[//b]//c"), nil, nil, io, engine.Options{}); err == nil {
		t.Errorf("twig query: expected error")
	}
	if _, err := Eval(tpq.MustParse("//a"), nil, nil, io, engine.Options{}); err == nil {
		t.Errorf("no views: expected error")
	}
	// Element-scheme store where a tuple store is required.
	q := tpq.MustParse("//a")
	es := store.MustBuild(views.MustMaterialize(d, q), store.Element, 0)
	if _, err := Eval(q, []*store.ViewStore{es}, [][]int{{0}}, io, engine.Options{}); err == nil {
		t.Errorf("element store: expected error")
	}
}

// TestTupleRedundancyCost demonstrates the paper's observation that the
// tuple scheme inflates work when elements occur in many matches: the same
// query over a redundancy-heavy view scans more tuples than over singleton
// views.
func TestTupleRedundancyCost(t *testing.T) {
	// One a holding many b's each holding many c's: |(b,c) pairs| >> |nodes|.
	b := xmltree.NewBuilder()
	b.Element("r", func() {
		b.Element("a", func() {
			for i := 0; i < 8; i++ {
				b.Element("b", func() {
					for j := 0; j < 8; j++ {
						b.Leaf("c")
					}
				})
			}
		})
	})
	d := b.MustDocument()
	q := tpq.MustParse("//a//b//c")
	want := oracle.Eval(d, q)
	got, cBig := evalWith(t, d, q, tpq.MustParseAll("//b//c; //a"))
	if !got.SameAs(want) {
		t.Fatalf("got %d matches, want %d", len(got), len(want))
	}
	_, cSmall := evalWith(t, d, q, testutil.SingletonViews(q))
	if cBig.ElementsScanned <= cSmall.ElementsScanned {
		t.Errorf("redundant tuple view should scan more: %d vs %d",
			cBig.ElementsScanned, cSmall.ElementsScanned)
	}
}

// TestAgainstOracleProperty validates InterJoin on random path queries and
// random path-view factorizations of all shapes.
func TestAgainstOracleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := testutil.RandomDoc(rng, 100, nil)
		q := randomPath(rng, 5)
		var vs []*tpq.Pattern
		switch rng.Intn(3) {
		case 0:
			vs = testutil.SingletonViews(q)
		case 1:
			vs = testutil.PathChunkViews(q, 1+rng.Intn(3))
		default:
			vs = testutil.InterleavedPathViews(q, 1+rng.Intn(3))
		}
		want := oracle.Eval(d, q)
		got, _ := evalWith(t, d, q, vs)
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
