package viewjoin

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

func evalWith(t testing.TB, d *xmltree.Document, q *tpq.Pattern, vs []*tpq.Pattern,
	kind store.Kind, opts engine.Options) (set match.Set, segments int, c counters.Counters) {
	t.Helper()
	v, err := vsq.Build(q, vs)
	if err != nil {
		t.Fatalf("vsq.Build(%s | %v): %v", q, vs, err)
	}
	stores := make([]*store.ViewStore, len(vs))
	for i, vp := range vs {
		stores[i] = store.MustBuild(views.MustMaterialize(d, vp), kind, 256)
	}
	p, err := Prepare(v, stores, opts.Tracer)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	got, _, err := p.Run(counters.NewIO(&c, 0), opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return testutil.RowsToSet(t, d, got), len(v.Segments), c
}

func mustDoc(t testing.TB, src string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

var allKinds = []store.Kind{store.Element, store.Linked, store.LinkedPartial}

func TestSimplePath(t *testing.T) {
	d := mustDoc(t, `<r><a><b/><b><c/></b></a><a><c/></a></r>`)
	q := tpq.MustParse("//a//b//c")
	want := oracle.Eval(d, q)
	for _, kind := range allKinds {
		got, _, _ := evalWith(t, d, q, testutil.SingletonViews(q), kind, engine.Options{})
		if !got.SameAs(want) {
			t.Errorf("%v: got %d matches, want %d", kind, len(got), len(want))
		}
	}
}

// TestPaperExample runs the paper's running example: the Fig. 1 document
// shape, Q = //a[//f]//b//c//d//e, views v1 = //a//e, v2 = //b//c//d,
// v3 = //f. Node c is removed from Q' and must be recovered through child
// pointers at output time.
func TestPaperExample(t *testing.T) {
	b := xmltree.NewBuilder()
	b.Element("r", func() {
		b.Element("a", func() { // a1: no f below -> skipped via following pointer
			b.Element("b", func() {
				b.Element("c", func() { b.Element("d", func() { b.Leaf("e") }) })
			})
			b.Leaf("e")
		})
		b.Element("a", func() { // a2: full match
			b.Leaf("f")
			b.Element("b", func() {
				b.Element("c", func() {
					b.Element("d", func() { b.Leaf("e"); b.Leaf("e") })
				})
				b.Element("c", func() { b.Element("d", func() { b.Leaf("e") }) })
			})
		})
	})
	d := b.MustDocument()
	q := tpq.MustParse("//a[//f]//b//c//d//e")
	vs := tpq.MustParseAll("//a//e; //b//c//d; //f")
	want := oracle.Eval(d, q)
	if len(want) == 0 {
		t.Fatalf("bad fixture: no matches")
	}
	for _, kind := range allKinds {
		got, segments, _ := evalWith(t, d, q, vs, kind, engine.Options{})
		if !got.SameAs(want) {
			t.Errorf("%v: got %d matches, want %d", kind, len(got), len(want))
		}
		if segments != 4 {
			t.Errorf("segments = %d, want 4", segments)
		}
	}
}

func TestWholeQueryViewUsesExtension(t *testing.T) {
	// A single view covering the whole query: Q' is just the root, and all
	// other nodes are recovered via the extension step.
	d := mustDoc(t, `<r><a><b/><b><c/></b><c/></a><a><c/></a><a><b><c/></b></a></r>`)
	q := tpq.MustParse("//a[//b]//c")
	want := oracle.Eval(d, q)
	for _, kind := range allKinds {
		got, segments, _ := evalWith(t, d, q, testutil.WholeQueryView(q), kind, engine.Options{})
		if !got.SameAs(want) {
			t.Errorf("%v: got %d matches, want %d", kind, len(got), len(want))
		}
		if segments != 1 {
			t.Errorf("segments = %d, want 1", segments)
		}
	}
}

func TestNestedSameTypeRoots(t *testing.T) {
	// Nested a-elements with interleaved views: the shape the jump guards
	// exist for (package doc, "Deviations") — a following pointer scoped to
	// an outer a lands past an inner a that still holds matches, and a child
	// pointer would reposition a member an open outer a still covers.
	d := mustDoc(t, `<a><b/><a><c/><a><b/><c/></a><b/></a><c/></a>`)
	q := tpq.MustParse("//a[//b]//c")
	want := oracle.Eval(d, q)
	for _, kind := range allKinds {
		for _, vs := range [][]*tpq.Pattern{
			testutil.SingletonViews(q),
			tpq.MustParseAll("//a//c; //b"),
			tpq.MustParseAll("//a[//b]//c"),
		} {
			got, _, _ := evalWith(t, d, q, vs, kind, engine.Options{})
			if !got.SameAs(want) {
				t.Errorf("%v %v: got %d matches, want %d", kind, vs, len(got), len(want))
			}
		}
	}
}

// TestJumpGuardsUnderNesting holds each pointer guard to a document on
// which the jump it refuses loses matches; with the guard forced to pass,
// the case fails over LE and LEp.
//
//   - safe-jump probe (advancePointers): the first <a>'s following pointer,
//     scoped to the outer <c>, lands on the last <a> and skips the one
//     under the inner <c>, whose <b> child makes the match.
//   - reposition guard (repositionMembers): the outer <a> is accepted and
//     still open when the <a> cursor moves on past the second <a>; the
//     child pointer it lands on would move the <c> cursor past the first
//     <c>, which matches under the outer <a> through the first <b>.
func TestJumpGuardsUnderNesting(t *testing.T) {
	for _, c := range []struct{ name, doc, query, views string }{
		{"safe-jump probe", `<root><c><a/><c><a><b/></a></c><a/></c></root>`, "//c//a/b", "//c//a; //b"},
		{"reposition guard", `<root><a><b><a><c/></a></b><b><a><c/></a></b></a></root>`, "//a//b//c", "//a//c; //b"},
	} {
		d := mustDoc(t, c.doc)
		q := tpq.MustParse(c.query)
		want := oracle.Eval(d, q)
		for _, kind := range allKinds {
			if got, _, _ := evalWith(t, d, q, tpq.MustParseAll(c.views), kind, engine.Options{}); !got.SameAs(want) {
				t.Errorf("%s %v: got %d matches, want %d", c.name, kind, len(got), len(want))
			}
		}
	}
}

func TestSkippingReducesWork(t *testing.T) {
	// Many a-subtrees without f; only the last contains one. With LE views,
	// following/child pointers let ViewJoin skip the barren subtrees, so it
	// scans fewer elements than the E scheme.
	b := xmltree.NewBuilder()
	b.Element("r", func() {
		for i := 0; i < 50; i++ {
			b.Element("a", func() {
				for j := 0; j < 10; j++ {
					b.Element("b", func() { b.Leaf("e") })
				}
			})
		}
		b.Element("a", func() {
			b.Leaf("f")
			b.Element("b", func() { b.Leaf("e") })
		})
	})
	d := b.MustDocument()
	q := tpq.MustParse("//a[//f]//b//e")
	vs := tpq.MustParseAll("//a//e; //b; //f")
	want := oracle.Eval(d, q)

	gotE, _, cE := evalWith(t, d, q, vs, store.Element, engine.Options{})
	gotLE, _, cLE := evalWith(t, d, q, vs, store.Linked, engine.Options{})
	if !gotE.SameAs(want) || !gotLE.SameAs(want) {
		t.Fatalf("wrong matches: E=%d LE=%d want=%d", len(gotE), len(gotLE), len(want))
	}
	if cLE.ElementsScanned >= cE.ElementsScanned {
		t.Errorf("LE should scan fewer elements than E: %d vs %d", cLE.ElementsScanned, cE.ElementsScanned)
	}
	if cLE.PointerDerefs == 0 {
		t.Errorf("LE run followed no pointers")
	}
	if cE.PointerDerefs != 0 {
		t.Errorf("E run followed %d pointers", cE.PointerDerefs)
	}
}

func TestDiskBasedApproach(t *testing.T) {
	d := mustDoc(t, `<r><a><b/><b/><c/></a><a><b/><c/><c/></a></r>`)
	q := tpq.MustParse("//a[//b]//c")
	want := oracle.Eval(d, q)
	gotM, _, cM := evalWith(t, d, q, testutil.SingletonViews(q), store.Linked, engine.Options{})
	gotD, _, cD := evalWith(t, d, q, testutil.SingletonViews(q), store.Linked,
		engine.Options{DiskBased: true})
	if !gotM.SameAs(want) || !gotD.SameAs(want) {
		t.Fatalf("disk/memory approaches disagree with oracle")
	}
	if cD.PagesWritten == 0 || cM.PagesWritten != 0 {
		t.Errorf("spool accounting wrong: disk wrote %d, memory wrote %d", cD.PagesWritten, cM.PagesWritten)
	}
}

func TestPCEdgesAcrossViews(t *testing.T) {
	d := mustDoc(t, `<r><a><b><c/></b><x><b><x2><c/></x2></b></x></a></r>`)
	for _, qs := range []string{"//a/b/c", "//a//b/c", "//a/x"} {
		q := tpq.MustParse(qs)
		want := oracle.Eval(d, q)
		for _, kind := range allKinds {
			got, _, _ := evalWith(t, d, q, testutil.SingletonViews(q), kind, engine.Options{})
			if !got.SameAs(want) {
				t.Errorf("%s %v: got %d matches, want %d", qs, kind, len(got), len(want))
			}
		}
	}
}

func TestEmptyResults(t *testing.T) {
	d := mustDoc(t, `<r><a/><b/></r>`)
	q := tpq.MustParse("//a//b")
	for _, kind := range allKinds {
		got, _, _ := evalWith(t, d, q, testutil.SingletonViews(q), kind, engine.Options{})
		if len(got) != 0 {
			t.Errorf("%v: got %d matches, want 0", kind, len(got))
		}
	}
}

func TestErrors(t *testing.T) {
	d := mustDoc(t, `<r><a/></r>`)
	q := tpq.MustParse("//a")
	v, err := vsq.Build(q, testutil.SingletonViews(q))
	if err != nil {
		t.Fatal(err)
	}
	// Tuple store where an element-family store is required.
	ts := store.MustBuild(views.MustMaterialize(d, q), store.Tuple, 0)
	if _, err := Prepare(v, []*store.ViewStore{ts}, nil); err == nil {
		t.Errorf("tuple store: expected error")
	}
}

// TestRunInterruptedInsideFanOut interrupts a run while its enumeration
// writes the rows of one parent binding with 5 000 last-node rows: a hook
// that counts a full run's polls fails a few polls before its end, where
// the join loop is done and the fan-out is being written. Run must return
// the hook's error and no rows.
func TestRunInterruptedInsideFanOut(t *testing.T) {
	d := mustDoc(t, "<r><a>"+strings.Repeat("<b/>", 5000)+"</a></r>")
	q := tpq.MustParse("//a//b")
	vs := []*tpq.Pattern{q}
	v, err := vsq.Build(q, vs)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(v, []*store.ViewStore{store.MustBuild(views.MustMaterialize(d, q), store.Linked, 0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	polls := 0
	count := func() error { polls++; return nil }
	var c counters.Counters
	if rows, _, err := p.Run(counters.NewIO(&c, 0), engine.Options{Interrupt: count}); err != nil || len(rows) != 5000 {
		t.Fatalf("uninterrupted run: %d rows, %v", len(rows), err)
	}
	full, boom := polls, errors.New("deadline")
	if full < 10 {
		t.Fatalf("a full run polled %d times; the fan-out alone takes 19 polls", full)
	}
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

// TestAgainstOracleProperty is the main correctness property for ViewJoin:
// random documents (with recursive element nesting), random twig queries,
// random covering view partitions, all schemes, both output approaches.
func TestAgainstOracleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := testutil.RandomDoc(rng, 120, nil)
		q := testutil.RandomPattern(rng, 5, nil)
		var vs []*tpq.Pattern
		switch rng.Intn(3) {
		case 0:
			vs = testutil.SingletonViews(q)
		case 1:
			vs = testutil.WholeQueryView(q)
		default:
			vs = testutil.RandomViewPartition(rng, q)
		}
		kind := allKinds[rng.Intn(3)]
		opts := engine.Options{DiskBased: rng.Intn(2) == 0}
		want := oracle.Eval(d, q)
		got, _, _ := evalWith(t, d, q, vs, kind, opts)
		if !got.SameAs(want) {
			t.Logf("seed=%d q=%s views=%v kind=%v: got %d, want %d", seed, q, vs, kind, len(got), len(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestRegionLogCoversRange holds coversRange, tail shortcut and search, to
// its definition over random logs with ascending starts: some region added
// with a start before hi ends after s.
func TestRegionLogCoversRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		var log regionLog
		var regions []store.Label
		start := int32(rng.Intn(4))
		for n := rng.Intn(12); len(regions) < n; {
			l := store.Label{Start: start, End: start + 1 + int32(rng.Intn(30))}
			log.add(l)
			regions = append(regions, l)
			start += 1 + int32(rng.Intn(5))
		}
		for probe := 0; probe < 50; probe++ {
			s := int32(rng.Intn(int(start) + 10))
			hi := s + int32(rng.Intn(int(start)+10))
			want := false
			for _, l := range regions {
				want = want || (l.Start < hi && l.End > s)
			}
			if got := log.coversRange(s, hi); got != want {
				t.Fatalf("regions %v: coversRange(%d, %d) = %v, want %v", regions, s, hi, got, want)
			}
		}
	}
}
