package viewjoin

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"viewjoin/internal/engine"
	"viewjoin/internal/tpq"
	"viewjoin/internal/workload"
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

// TestPartitionedPagesAreDeterministic runs the first page of every XMark
// catalogue query, and the page after its cursor, partitioned two and four
// ways, under every engine (IJ over tuple-scheme views of the path
// queries), ten times each. Partition jobs share no state, so every repeat
// must report the same Stats (timings aside), one partition per planned
// job the cursor does not start past, and the rows of the sequential page.
func TestPartitionedPagesAreDeterministic(t *testing.T) {
	const limit, repeats = 20, 10
	d := GenerateXMark(0.25)
	combos := []struct {
		engine   Engine
		scheme   StorageScheme
		pathOnly bool
	}{
		{EngineViewJoin, SchemeLEp, false},
		{EngineTwigStack, SchemeLEp, false},
		{EnginePathStack, SchemeLEp, true},
		{EngineInterJoin, SchemeTuple, true},
	}
	ctx := context.Background()
	split := 0 // plans some page of which ran in several partitions
	for _, wq := range workload.All() {
		if wq.Name[0] != 'Q' {
			continue
		}
		q := MustParseQuery(wq.Pattern.String())
		vs := make([]*Query, len(wq.Views))
		for i, v := range wq.Views {
			vs[i] = MustParseQuery(v.String())
		}
		for _, c := range combos {
			if c.pathOnly && !q.IsPath() {
				continue
			}
			mv, err := d.MaterializeViews(vs, c.scheme)
			if err != nil {
				t.Fatal(err)
			}
			p, err := Prepare(d, q, mv, c.engine, nil)
			if err != nil {
				t.Fatal(err)
			}
			first, err := p.RunWith(ctx, &RunOptions{Limit: limit})
			if err != nil {
				t.Fatal(err)
			}
			pages := [][]int32{nil}
			if n := len(first.Matches); n > 0 {
				var cursor []int32
				for _, cell := range first.Matches[n-1] {
					cursor = append(cursor, cell.Start)
				}
				pages = append(pages, cursor)
			}
			for _, after := range pages {
				seq, err := p.RunWith(ctx, &RunOptions{Limit: limit, After: after})
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{2, 4} {
					name := fmt.Sprintf("%s/%s/k=%d", wq.Name, c.engine, k)
					if after != nil {
						name += "/next"
					}
					want := startedJobs(p, p.planPartitions(k), after)
					if want > 1 {
						split++
					}
					var ref Stats
					for r := 0; r < repeats; r++ {
						res, err := p.RunWith(ctx, &RunOptions{Limit: limit, After: after, Parallelism: k})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !identicalMatches(res, seq) {
							t.Fatalf("%s: %d rows differ from the sequential page's %d", name, len(res.Matches), len(seq.Matches))
						}
						st := res.Stats
						st.Duration, st.FirstMatchNanos = 0, 0
						if st.Partitions != want {
							t.Fatalf("%s run %d: %d partitions, want %d", name, r, st.Partitions, want)
						}
						if r == 0 {
							ref = st
						} else if st != ref {
							t.Fatalf("%s run %d: stats %+v, run 0 had %+v", name, r, st, ref)
						}
					}
				}
			}
		}
	}
	if split == 0 {
		t.Fatal("no page ran in several partitions")
	}
}

// startedJobs counts the partition jobs a run with cursor after executes:
// all planned ones (one whole-document job when none are), less the chunks
// that end before the cursor (runJob).
func startedJobs(p *PreparedQuery, jobs []engine.Restriction, after []int32) int {
	if len(jobs) == 0 {
		return 1
	}
	if after == nil {
		return len(jobs)
	}
	b := 0
	for b < len(p.resume) && after[b] == p.resume[b] {
		b++
	}
	n := 0
	for _, j := range jobs {
		if max(j.Body.Lo, after[b]) < j.Body.Hi {
			n++
		}
	}
	return n
}
