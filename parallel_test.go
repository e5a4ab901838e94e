package viewjoin

import (
	"context"
	"strings"
	"testing"

	"viewjoin/internal/tpq"
)

func TestAnchorNode(t *testing.T) {
	cases := []struct {
		q    string
		want int
	}{
		{"//a", 0},               // no spine: the root is the anchor
		{"//a//b//c", 2},         // pure path: the leaf anchors
		{"//a[//b]//c", 0},       // branching root: spine is empty
		{"//a//b[//c]//d", 1},    // spine a→b, then b branches
		{"//a//b//c[//d]//e", 2}, // spine a→b→c
	}
	for _, tc := range cases {
		if got := anchorNode(MustParseQuery(tc.q).p.Nodes); got != tc.want {
			t.Errorf("anchorNode(%s) = %d, want %d", tc.q, got, tc.want)
		}
	}
	// A hand-built pattern whose only-child chain is not consecutive in
	// pre-order is unpartitionable.
	nodes := []tpq.Node{
		{Label: "a", Parent: -1, Children: []int{2}},
		{Label: "x", Parent: 2},
		{Label: "b", Parent: 0, Children: []int{1}},
	}
	if got := anchorNode(nodes); got != -1 {
		t.Errorf("anchorNode(non-consecutive spine) = %d, want -1", got)
	}
}

// prepareSingletons prepares a query over doc with one single-node view per
// query label in the given scheme.
func prepareSingletons(t *testing.T, d *Document, queryStr string, scheme StorageScheme, eng Engine) (*PreparedQuery, *Query) {
	t.Helper()
	q := MustParseQuery(queryStr)
	var parts []string
	for _, l := range q.Labels() {
		parts = append(parts, "//"+l)
	}
	views, err := ParseViews(strings.Join(parts, "; "))
	if err != nil {
		t.Fatal(err)
	}
	mv, err := d.MaterializeViews(views, scheme)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(d, q, mv, eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p, q
}

// runBoth runs the prepared plan sequentially and with Parallelism k,
// requiring byte-identical results, and returns the partition count the
// parallel run reported.
func runBoth(t *testing.T, p *PreparedQuery, k int) int {
	t.Helper()
	seq, err := p.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	par, err := p.RunWith(context.Background(), &RunOptions{Parallelism: k})
	if err != nil {
		t.Fatalf("Parallelism %d: %v", k, err)
	}
	if !identicalMatches(par, seq) {
		t.Fatalf("Parallelism %d diverged: %d matches vs %d sequential",
			k, len(par.Matches), len(seq.Matches))
	}
	return par.Stats.Partitions
}

// TestParallelBoundaries exercises the degenerate partition shapes: they
// must all degrade to fewer (or one) partitions, never error, and never
// change the result.
func TestParallelBoundaries(t *testing.T) {
	t.Run("single-root document", func(t *testing.T) {
		d, err := ParseDocumentString(`<r/>`)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := prepareSingletons(t, d, "//r", SchemeLEp, EngineViewJoin)
		if parts := runBoth(t, p, 4); parts != 1 {
			t.Errorf("single-root doc planned %d partitions, want 1", parts)
		}
	})

	t.Run("root-only match", func(t *testing.T) {
		// The only match binds the document root: its single candidate is
		// one blob, so no cut exists.
		d, err := ParseDocumentString(`<r><a/><a/><a/></r>`)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := prepareSingletons(t, d, "//r", SchemeLEp, EngineViewJoin)
		if parts := runBoth(t, p, 4); parts != 1 {
			t.Errorf("root-only query planned %d partitions, want 1", parts)
		}
	})

	t.Run("k beyond blobs degrades", func(t *testing.T) {
		// Three anchor subtrees cannot feed 64 partitions: the planner
		// clamps instead of erroring.
		d, err := ParseDocumentString(`<r><a><b/></a><a><b/></a><a><b/></a></r>`)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []Engine{EngineViewJoin, EngineTwigStack, EnginePathStack} {
			p, _ := prepareSingletons(t, d, "//a//b", SchemeLEp, eng)
			parts := runBoth(t, p, 64)
			if parts < 1 || parts > 3 {
				t.Errorf("%v: k=64 over 3 blobs planned %d partitions, want 1..3", eng, parts)
			}
		}
	})

	t.Run("k exceeds GOMAXPROCS", func(t *testing.T) {
		// More partitions than workers: jobs queue on the bounded worker
		// group rather than spawning unbounded goroutines.
		d := buildJumpDoc(t, 16)
		p, _ := prepareSingletons(t, d, "//a//b", SchemeLEp, EngineViewJoin)
		if parts := runBoth(t, p, 16); parts < 2 {
			t.Errorf("planned %d partitions, want several", parts)
		}
	})
}

// buildJumpDoc builds <r> with n <a> subtrees, each holding several <b>
// elements, so //a//b anchors at b with 3n blobs and LEp pointer jump
// targets that cross any chunk boundary the planner picks.
func buildJumpDoc(t *testing.T, n int) *Document {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < n; i++ {
		sb.WriteString("<a><x/><b><c/></b><b/><b/></a>")
	}
	sb.WriteString("</r>")
	d, err := ParseDocumentString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestParallelChunkBoundaryInsideJumpTarget pins the pointer-clamp case:
// with chunk boundaries falling between (and inside) the a-subtrees, the
// LEp descendant/following pointers of the spine's a list address records
// outside a worker's window, and the range cursor's Seek clamp must keep
// every partition's matches exactly the sequential ones.
func TestParallelChunkBoundaryInsideJumpTarget(t *testing.T) {
	d := buildJumpDoc(t, 8)
	for _, eng := range []Engine{EngineViewJoin, EngineTwigStack, EnginePathStack} {
		for _, scheme := range []StorageScheme{SchemeElement, SchemeLE, SchemeLEp} {
			p, _ := prepareSingletons(t, d, "//a//b", scheme, eng)
			for _, k := range []int{2, 3, 5, 8} {
				parts := runBoth(t, p, k)
				if k >= 2 && parts < 2 {
					t.Errorf("%v+%v k=%d: planned %d partitions, expected a real split", eng, scheme, k, parts)
				}
			}
		}
	}
	// InterJoin over tuples, same document: //a//b is a path query.
	q := MustParseQuery("//a//b")
	views, err := ParseViews("//a; //b")
	if err != nil {
		t.Fatal(err)
	}
	mv, err := d.MaterializeViews(views, SchemeTuple)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(d, q, mv, EngineInterJoin, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4, 8} {
		if parts := runBoth(t, p, k); parts < 2 {
			t.Errorf("IJ k=%d: planned %d partitions, expected a real split", k, parts)
		}
	}
}
