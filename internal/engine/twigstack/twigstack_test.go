package twigstack

import (
	"errors"
	"math/rand"
	"strings"
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

// evalWith materializes the view set in the given scheme and runs TwigStack.
func evalWith(t testing.TB, d *xmltree.Document, q *tpq.Pattern, vs []*tpq.Pattern,
	kind store.Kind, opts engine.Options) (match.Set, int64, counters.Counters) {
	t.Helper()
	v, err := vsq.Build(q, vs)
	if err != nil {
		t.Fatalf("vsq.Build(%s | %v): %v", q, vs, err)
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
	io := counters.NewIO(&c, 0)
	got, st, err := Eval(q, lists, io, opts)
	if err != nil {
		t.Fatalf("Eval(%s): %v", q, err)
	}
	return testutil.RowsToSet(t, d, got), st, c
}

func mustDoc(t testing.TB, src string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	return d
}

func TestSimplePath(t *testing.T) {
	d := mustDoc(t, `<r><a><b/><b><c/></b></a><a><c/></a></r>`)
	q := tpq.MustParse("//a//b//c")
	want := oracle.Eval(d, q)
	got, _, _ := evalWith(t, d, q, testutil.SingletonViews(q), store.Element, engine.Options{})
	if !got.SameAs(want) {
		t.Fatalf("got %d matches, want %d", len(got), len(want))
	}
}

func TestTwigQuery(t *testing.T) {
	d := mustDoc(t, `<r><a><b/><b/><c><d/></c><c/></a><a><c><d/></c></a></r>`)
	for _, qs := range []string{"//a[//b]//c", "//a[//b]//c/d", "//a[//b][//c//d]", "//a/c/d"} {
		q := tpq.MustParse(qs)
		want := oracle.Eval(d, q)
		got, _, _ := evalWith(t, d, q, testutil.SingletonViews(q), store.Element, engine.Options{})
		if !got.SameAs(want) {
			t.Errorf("%s: got %d matches, want %d", qs, len(got), len(want))
		}
	}
}

func TestNestedRoots(t *testing.T) {
	// Recursive a-elements: windows must handle nested root candidates.
	d := mustDoc(t, `<a><a><b/><a><b/></a></a><b/></a>`)
	q := tpq.MustParse("//a//b")
	want := oracle.Eval(d, q)
	got, _, _ := evalWith(t, d, q, testutil.SingletonViews(q), store.Element, engine.Options{})
	if !got.SameAs(want) {
		t.Fatalf("got %d matches, want %d", len(got), len(want))
	}
}

func TestEmptyResult(t *testing.T) {
	d := mustDoc(t, `<r><a/><b/></r>`)
	q := tpq.MustParse("//a//b")
	got, _, _ := evalWith(t, d, q, testutil.SingletonViews(q), store.Element, engine.Options{})
	if len(got) != 0 {
		t.Fatalf("got %d matches, want 0", len(got))
	}
}

func TestAllSchemesAgree(t *testing.T) {
	d := mustDoc(t, `<r><a><b><c/><e/></b><e/></a><a><f/><b><d/><c><d/></c></b><e/></a></r>`)
	q := tpq.MustParse("//a[//f]//b//c//d")
	want := oracle.Eval(d, q)
	for _, kind := range []store.Kind{store.Element, store.Linked, store.LinkedPartial} {
		for _, vs := range [][]*tpq.Pattern{
			testutil.SingletonViews(q),
			tpq.MustParseAll("//a//c; //b//d; //f"),
			tpq.MustParseAll("//a[//f]//b; //c//d"),
		} {
			got, _, _ := evalWith(t, d, q, vs, kind, engine.Options{})
			if !got.SameAs(want) {
				t.Errorf("%v %v: got %d matches, want %d", kind, vs, len(got), len(want))
			}
		}
	}
}

func TestDiskBasedApproach(t *testing.T) {
	d := mustDoc(t, `<r><a><b/><b/><c/></a><a><b/><c/><c/></a></r>`)
	q := tpq.MustParse("//a[//b]//c")
	want := oracle.Eval(d, q)
	gotM, _, cM := evalWith(t, d, q, testutil.SingletonViews(q), store.Element, engine.Options{})
	gotD, _, cD := evalWith(t, d, q, testutil.SingletonViews(q), store.Element,
		engine.Options{DiskBased: true})
	if !gotM.SameAs(want) || !gotD.SameAs(want) {
		t.Fatalf("disk/memory approaches disagree with oracle")
	}
	if cD.PagesWritten == 0 {
		t.Errorf("disk-based approach wrote no pages")
	}
	if cM.PagesWritten != 0 {
		t.Errorf("memory-based approach wrote pages")
	}
	if cD.PagesRead <= cM.PagesRead {
		t.Errorf("disk-based should read more pages: %d vs %d", cD.PagesRead, cM.PagesRead)
	}
}

func TestViewsPruneWork(t *testing.T) {
	// With a whole-query view, the streams contain only solution nodes, so
	// TS scans fewer elements than with singleton (raw) views.
	d := mustDoc(t, `<r><a><b/></a><a/><a/><b/><b/></r>`)
	q := tpq.MustParse("//a//b")
	_, _, cRaw := evalWith(t, d, q, testutil.SingletonViews(q), store.Element, engine.Options{})
	_, _, cView := evalWith(t, d, q, testutil.WholeQueryView(q), store.Element, engine.Options{})
	if cView.ElementsScanned >= cRaw.ElementsScanned {
		t.Errorf("whole-query view should scan fewer elements: %d vs %d",
			cView.ElementsScanned, cRaw.ElementsScanned)
	}
}

// TestAgainstOracleProperty is the main correctness property: random
// documents, random queries, random covering view partitions, all three
// element-family schemes, both output approaches.
func TestAgainstOracleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := testutil.RandomDoc(rng, 120, nil)
		q := testutil.RandomPattern(rng, 5, nil)
		vs := testutil.RandomViewPartition(rng, q)
		want := oracle.Eval(d, q)
		kind := []store.Kind{store.Element, store.Linked, store.LinkedPartial}[rng.Intn(3)]
		opts := engine.Options{DiskBased: rng.Intn(2) == 0}
		got, _, _ := evalWith(t, d, q, vs, kind, opts)
		if !got.SameAs(want) {
			t.Logf("seed=%d q=%s views=%v kind=%v: got %d, want %d", seed, q, vs, kind, len(got), len(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestRunInterruptedInsideFanOut interrupts a run while its enumeration
// writes one parent binding's 5 000 last-node rows (a few polls before a
// full run's last): Run must return the hook's error and no rows.
func TestRunInterruptedInsideFanOut(t *testing.T) {
	d := mustDoc(t, "<r><a>"+strings.Repeat("<b/>", 5000)+"</a></r>")
	q := tpq.MustParse("//a//b")
	v, err := vsq.Build(q, testutil.SingletonViews(q))
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]*store.ViewStore, len(v.Views))
	for i, vp := range v.Views {
		stores[i] = store.MustBuild(views.MustMaterialize(d, vp), store.Element, 0)
	}
	lists, err := engine.BindLists(v, stores)
	if err != nil {
		t.Fatal(err)
	}
	p := Prepare(q, lists)
	polls := 0
	var c counters.Counters
	if rows, _, err := p.Run(counters.NewIO(&c, 0), engine.Options{Interrupt: func() error { polls++; return nil }}); err != nil || len(rows) != 5000 {
		t.Fatalf("uninterrupted run: %d rows, %v", len(rows), err)
	}
	full, boom := polls, errors.New("deadline")
	polls = 0
	trip := func() error {
		if polls++; polls == full-3 {
			return boom
		}
		return nil
	}
	rows, _, err := p.Run(counters.NewIO(&c, 0), engine.Options{Interrupt: trip})
	if !errors.Is(err, boom) || rows != nil {
		t.Fatalf("interrupted run returned %d rows and %v, want no rows and the hook's error", len(rows), err)
	}
}
