package enum

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"viewjoin/internal/counters"
	"viewjoin/internal/engine"
	"viewjoin/internal/match"
	"viewjoin/internal/oracle"
	"viewjoin/internal/testutil"
	"viewjoin/internal/tpq"
	"viewjoin/internal/xmltree"
)

// The differential harness of the output stage itself: a document, a
// pattern and a candidate stream go through the Collector, and the rows —
// and their order — must be the oracle's. The engines' own differential
// suites reach the stage only through the streams VJ and TS happen to
// produce; here the stream is hostile within the Add contract.

// diffLabels is deliberately tiny: three tags over a few dozen nodes nest
// recursively, repeat along every path and fill windows with candidates
// that fail one edge or another.
var diffLabels = []string{"a", "b", "c"}

// cand is one Add of a candidate stream.
type cand struct {
	qi int
	l  Label
}

// randomGeneralPattern draws a pattern of up to four nodes whose labels
// repeat freely ("//a//a", "//a/a[/a]"), numbered in pre-order as the parser
// numbers them. One root in three is the document root's label, which makes
// the window document-spanning; half of those are anchored ("/root").
func randomGeneralPattern(rng *rand.Rand) *tpq.Pattern {
	n := 1 + rng.Intn(4)
	p := &tpq.Pattern{}
	path := []int{0} // rightmost path: where a pre-order successor may hang
	for i := 0; i < n; i++ {
		node := tpq.Node{Label: diffLabels[rng.Intn(len(diffLabels))], Axis: tpq.Descendant, Parent: -1}
		if i > 0 {
			k := rng.Intn(len(path))
			node.Parent = path[k]
			path = append(path[:k+1], i)
			if rng.Intn(2) == 0 {
				node.Axis = tpq.Child
			}
			p.Nodes[node.Parent].Children = append(p.Nodes[node.Parent].Children, i)
		}
		p.Nodes = append(p.Nodes, node)
	}
	switch rng.Intn(6) {
	case 0:
		p.Nodes[0].Label, p.Nodes[0].Axis = testutil.RootLabel, tpq.Child
	case 1:
		p.Nodes[0].Label = testutil.RootLabel
	case 2:
		p.Nodes[0].Axis = tpq.Child // "/a": matches only if a is the document root, i.e. never
	}
	return p
}

// hostileStream turns the document-order candidate stream into one that
// uses every freedom Add grants: withheld query nodes are taken out (the
// PreFlush hook of replay supplies them, as ViewJoin's window extension
// does); candidates are repeated, at once and again later; non-root
// candidates are hoisted ahead of their window's root (pending) or of their
// list's predecessors (out of order). A non-root candidate is never moved
// past a later root candidate, which could close its window, and root
// candidates keep their order: those are the two things Add requires.
func hostileStream(rng *rand.Rand, qis []int, labels []Label, withheld []bool) []cand {
	var s []cand
	for i, qi := range qis {
		if !withheld[qi] {
			s = append(s, cand{qi, labels[i]})
		}
	}
	for ops := rng.Intn(1 + len(s)/4); ops > 0 && len(s) > 1; ops-- {
		i := rng.Intn(len(s))
		switch c := s[i]; {
		case rng.Intn(3) == 0 || c.qi == 0:
			s = append(s[:i+1], append([]cand{c}, s[i+1:]...)...) // immediate duplicate
		case rng.Intn(2) == 0:
			j := rng.Intn(i + 1) // hoist (a copy of) it to an earlier position
			if rng.Intn(2) == 0 {
				s = append(s[:i], s[i+1:]...)
			}
			s = append(s[:j], append([]cand{c}, s[j:]...)...)
		case i+1 < len(s) && s[i+1].qi != 0:
			s[i], s[i+1] = s[i+1], s[i]
		}
	}
	return s
}

// replayOpts selects an arm of the differential.
type replayOpts struct {
	advance bool    // call Advance at random points, with the true frontier
	first   int     // output quota
	after   []int32 // resumption cursor
}

// replay feeds stream through a fresh Collector the way an engine loop
// does — stopping once the collector trips the interrupter — and returns
// the rows it delivered.
func replay(rng *rand.Rand, q *tpq.Pattern, stream []cand, held [][]Label, o replayOpts) [][]match.Cell {
	var cnt counters.Counters
	c := newCollector(q, counters.NewIO(&cnt, 0), false)
	ic := engine.NewInterrupter(nil)
	c.SetInterrupt(&ic)
	c.SetStream(o.first, o.after)
	next := make([]int, len(held))
	c.PreFlush = func(lo, hi int32) {
		for x, list := range held {
			for next[x] < len(list) && list[next[x]].Start < lo {
				next[x]++
			}
			for ; next[x] < len(list) && list[next[x]].Start < hi; next[x]++ {
				c.Add(x, list[next[x]])
			}
		}
	}
	// frontier[i] is the least start among stream[i:]: what an engine's
	// forward-only cursors guarantee about everything still to come.
	frontier := make([]int32, len(stream)+1)
	frontier[len(stream)] = math.MaxInt32
	for i := len(stream) - 1; i >= 0; i-- {
		frontier[i] = min(frontier[i+1], stream[i].l.Start)
	}
	for i, cd := range stream {
		if ic.Err() != nil {
			break
		}
		c.Add(cd.qi, cd.l)
		if o.advance && rng.Intn(3) != 0 {
			c.Advance(frontier[i+1])
		}
	}
	return c.Result()
}

// checkWindowDifferential runs every arm over one (document, pattern) pair
// with streams drawn from rng.
func checkWindowDifferential(t *testing.T, rng *rand.Rand, d *xmltree.Document, q *tpq.Pattern) {
	t.Helper()
	want := oracle.Eval(d, q) // in the order the stage must produce
	qis, labels := candidates(d, q)
	withheld := make([]bool, q.Size())
	held := make([][]Label, q.Size())
	for qi := 1; qi < q.Size(); qi++ {
		withheld[qi] = rng.Intn(4) == 0
	}
	for i, qi := range qis {
		if withheld[qi] {
			held[qi] = append(held[qi], labels[i])
		}
	}
	stream := hostileStream(rng, qis, labels, withheld)

	same := func(arm string, got [][]match.Cell, want match.Set) {
		t.Helper()
		ms := testutil.RowsToSet(t, d, got)
		if len(ms) != len(want) {
			t.Fatalf("%s over %d nodes, %s: %d rows, want %d", q, d.NumNodes(), arm, len(ms), len(want))
		}
		for i := range want {
			if !match.Equal(ms[i], want[i]) {
				t.Fatalf("%s over %d nodes, %s: row %d is %v, want %v", q, d.NumNodes(), arm, i, ms[i], want[i])
			}
		}
	}
	same("full run", replay(rng, q, stream, held, replayOpts{}), want)
	same("unreached quota, Advance at random frontiers", replay(rng, q, stream, held, replayOpts{first: unreached, advance: true}), want)
	same("Advance without a quota", replay(rng, q, stream, held, replayOpts{advance: true}), want)
	if len(want) == 0 {
		return
	}
	k := 1 + rng.Intn(len(want))
	same("First quota", replay(rng, q, stream, held, replayOpts{first: k, advance: true}), want[:k])
	r := rng.Intn(len(want))
	after := make([]int32, q.Size())
	for i, id := range want[r] {
		after[i] = d.Node(id).Start
	}
	same("After cursor", replay(rng, q, stream, held, replayOpts{after: after}), want[r+1:])
	same("After cursor, unreached quota with Advance", replay(rng, q, stream, held, replayOpts{after: after, first: unreached, advance: true}), want[r+1:])
	rest := want[r+1:]
	if len(rest) > 0 {
		k = 1 + rng.Intn(len(rest))
		same("After cursor with First quota", replay(rng, q, stream, held, replayOpts{after: after, first: k, advance: true}), rest[:k])
	}
}

// randomWindowCase draws the document and pattern of one case. Most
// documents are small, for many root windows and quick shrinking; one in
// four is large enough for a document-spanning window to pass the
// partial-flush trigger several times.
func randomWindowCase(rng *rand.Rand) (*xmltree.Document, *tpq.Pattern) {
	shape := testutil.DocShape{MaxNodes: 40, MaxDepth: 8}
	if rng.Intn(4) == 0 {
		shape = testutil.DocShape{MaxNodes: 260, MaxDepth: 7}
	}
	return testutil.RandomDocShaped(rng, shape, diffLabels), randomGeneralPattern(rng)
}

func TestWindowDifferential(t *testing.T) {
	fixed := []struct{ src, q string }{
		{`<a><a><a/></a><b/><a><a><a/></a></a></a>`, "//a//a"},
		{`<a><a><a/></a><b/><a><a><a/></a></a></a>`, "//a/a"},
		{`<a><a><a/></a><b/><a><a><a/></a></a></a>`, "//a[/a]//a/a"},
		{`<a><a><b/></a><b/></a>`, "/a/b"},
		{`<a><a><b/></a><b/></a>`, "/a//a/b"},
		{`<r><a><b/></a></r>`, "/a/b"},
		{`<r><a><b/><c><b/></c></a><a><c/></a><a><a><b/></a></a></r>`, "//a[//c]/b"},
		// A branching spine tail that stays open across partial flushes
		// (the shape TestPartialFlushDupCheck was written for).
		{"<r><s><a><b>" + strings.Repeat("<a><b/></a>", 60) + "</b></a></s></r>", "//r//s[//a]//b"},
	}
	for i, tc := range fixed {
		q, err := tpq.ParseGeneral(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 20; seed++ {
			checkWindowDifferential(t, rand.New(rand.NewSource(seed*100+int64(i))), doc(t, tc.src), q)
		}
	}
	n := 3000
	if testing.Short() {
		n = 300
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, q := randomWindowCase(rng)
		checkWindowDifferential(t, rng, d, q)
	}
}

// manyWindowsDoc draws a document whose root holds the given number of
// small random a-rooted subtrees: one window each for an //a-rooted
// pattern, or several nested roots in one.
func manyWindowsDoc(rng *rand.Rand, windows int) string {
	var b strings.Builder
	var subtree func(depth int)
	subtree = func(depth int) {
		for k := rng.Intn(4); k > 0 && depth > 0; k-- {
			tag := diffLabels[rng.Intn(len(diffLabels))]
			b.WriteString("<" + tag + ">")
			subtree(depth - 1)
			b.WriteString("</" + tag + ">")
		}
	}
	b.WriteString("<r>")
	for i := 0; i < windows; i++ {
		b.WriteString("<a>")
		subtree(3)
		b.WriteString("</a>")
	}
	b.WriteString("</r>")
	return b.String()
}

// TestBatchedWindowsMatchSoloFlushes crosses the batch boundary, which the
// differential's documents are too small to reach: an unbounded run over
// hundreds of windows holding several times batchEntries candidates, with
// a withheld node the PreFlush hook supplies per window, must deliver the
// oracle's rows in order and count the comparisons that flushing each
// window alone, in a collector of its own, counts in all.
func TestBatchedWindowsMatchSoloFlushes(t *testing.T) {
	for i, query := range []string{"//a[//b]//c", "//a/b//c", "//a//a//b", "//a[/c]//b[//a]"} {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		d := doc(t, manyWindowsDoc(rng, 600))
		q, err := tpq.ParseGeneral(query)
		if err != nil {
			t.Fatal(err)
		}
		qis, labels := candidates(d, q)
		if len(labels) < 3*batchEntries {
			t.Fatalf("%s: %d candidates, want more than %d", q, len(labels), 3*batchEntries)
		}
		withheld := q.Size() - 1 // supplied by PreFlush, as ViewJoin's removed nodes are
		var stream []cand
		var held []Label
		for k, qi := range qis {
			if qi == withheld {
				held = append(held, labels[k])
			} else {
				stream = append(stream, cand{qi, labels[k]})
			}
		}
		collect := func(stream []cand) ([][]match.Cell, counters.Counters, int) {
			var cnt counters.Counters
			c := newCollector(q, counters.NewIO(&cnt, 0), false)
			next := 0
			c.PreFlush = func(lo, hi int32) {
				for next < len(held) && held[next].Start < lo {
					next++
				}
				for ; next < len(held) && held[next].Start < hi; next++ {
					c.Add(withheld, held[next])
				}
			}
			for _, cd := range stream {
				c.Add(cd.qi, cd.l)
			}
			return c.Result(), cnt, c.PeakEntries()
		}

		got, cnt, peak := collect(stream)
		if peak < batchEntries {
			t.Fatalf("%s: PeakEntries = %d: the run never reached a batch of %d", q, peak, batchEntries)
		}
		want := oracle.Eval(d, q)
		ms := testutil.RowsToSet(t, d, got)
		if len(ms) != len(want) {
			t.Fatalf("%s: %d rows, want %d", q, len(ms), len(want))
		}
		for r := range want {
			if !match.Equal(ms[r], want[r]) {
				t.Fatalf("%s: row %d is %v, want %v", q, r, ms[r], want[r])
			}
		}

		// Each window alone: the stream from the root candidate that opens
		// it up to the one that opens the next.
		var solo counters.Counters
		windows, from, end := 0, 0, int32(-1)
		for k := 0; k <= len(stream); k++ {
			if k < len(stream) && (stream[k].qi != 0 || stream[k].l.Start <= end) {
				continue
			}
			rows, c, _ := collect(stream[from:k])
			solo.Comparisons += c.Comparisons
			solo.Matches += c.Matches
			if len(rows) != int(c.Matches) {
				t.Fatalf("%s: window %d: %d rows, Matches %d", q, windows, len(rows), c.Matches)
			}
			if k < len(stream) {
				windows, from, end = windows+1, k, stream[k].l.End
			}
		}
		if windows < 300 {
			t.Fatalf("%s: %d windows, want hundreds", q, windows)
		}
		if cnt.Comparisons != solo.Comparisons || cnt.Matches != solo.Matches {
			t.Errorf("%s over %d windows: comparisons %d, matches %d; flushed one window at a time: %d, %d",
				q, windows, cnt.Comparisons, cnt.Matches, solo.Comparisons, solo.Matches)
		}
	}
}

// qualifies states what the filter must compute: x, a candidate of query
// node qi, has a match of the pattern's subtree at qi below it.
func qualifies(d *xmltree.Document, q *tpq.Pattern, qi int, x xmltree.Node) bool {
	for _, qc := range q.Nodes[qi].Children {
		found := false
		for _, y := range d.Nodes() {
			if d.TypeName(y.Type) == q.Nodes[qc].Label && x.Start < y.Start && y.Start < x.End &&
				(q.Nodes[qc].Axis == tpq.Descendant || y.Level == x.Level+1) && qualifies(d, q, qc, y) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestFilterIsExact pins the ok bits themselves. The row differential
// cannot: the walk re-tests every edge it binds, so a filter that lets
// too much through costs time, never rows.
func TestFilterIsExact(t *testing.T) {
	for seed := int64(1); seed <= 1500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, q := randomWindowCase(rng)
		var cnt counters.Counters
		c := newCollector(q, counters.NewIO(&cnt, 0), false)
		feed(d, q, c)
		if !c.open {
			continue
		}
		// The last window is still open: filter it in place.
		c.normalize()
		if !c.filter() {
			t.Fatal("filter reported an interrupt")
		}
		for qi, list := range c.cands {
			for j, l := range list {
				x := d.Node(d.FindByStart(l.Start))
				want := qualifies(d, q, qi, x) && (qi > 0 || q.Nodes[0].Axis == tpq.Descendant || x.Level == 0)
				if c.ok[qi][j] != want {
					t.Fatalf("seed %d, %s: ok[%d][%d] (start %d) = %v, want %v", seed, q, qi, j, l.Start, c.ok[qi][j], want)
				}
			}
		}
	}
}

func FuzzEnumerateWindow(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("window"))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		rng := testutil.NewByteRand(data)
		d, q := randomWindowCase(rng)
		checkWindowDifferential(t, rng, d, q)
	})
}
