package enum

import (
	"slices"
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

func doc(t testing.TB, src string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// feed adds every node of the document matching each query node's label,
// in document order — the most naive candidate generator possible. The
// collector must still produce exactly the oracle's answer, since the
// enumeration verifies every query edge.
func feed(d *xmltree.Document, q *tpq.Pattern, c *Collector) {
	for id := xmltree.NodeID(0); int(id) < d.NumNodes(); id++ {
		n := d.Node(id)
		name := d.TypeName(n.Type)
		for qi := range q.Nodes {
			if q.Nodes[qi].Label == name {
				c.Add(qi, Label{Start: n.Start, End: n.End, Level: n.Level})
			}
		}
	}
}

// newCollector is a fresh, untraced Collector for q, reset as an engine
// resets its pooled one.
func newCollector(q *tpq.Pattern, io *counters.IO, diskBased bool) *Collector {
	c := new(Collector)
	c.Reset(q, io, nil, diskBased)
	return c
}

func run(t *testing.T, src, query string, diskBased bool) ([][]match.Cell, counters.Counters) {
	t.Helper()
	d := doc(t, src)
	q := tpq.MustParse(query)
	var cnt counters.Counters
	c := newCollector(q, counters.NewIO(&cnt, 0), diskBased)
	feed(d, q, c)
	return c.Result(), cnt
}

func TestEnumerationMatchesOracle(t *testing.T) {
	cases := []struct{ src, q string }{
		{`<r><a><b/><c/></a><a><b/></a></r>`, "//a//b"},
		{`<r><a><b/><c/></a><a><b/></a></r>`, "//a[//b]//c"},
		{`<r><a><b><c/></b></a></r>`, "//a/b/c"},
		{`<a><a><b/></a><b/></a>`, "//a//b"},
		{`<a><b/></a>`, "/a/b"},
		{`<r><a><b/></a></r>`, "/a/b"}, // root axis: no match (a is not doc root)
		{`<r><x/><y/></r>`, "//a//b"},  // empty candidates
	}
	for _, tc := range cases {
		d := doc(t, tc.src)
		q := tpq.MustParse(tc.q)
		want := oracle.Eval(d, q)
		got, _ := run(t, tc.src, tc.q, false)
		if !testutil.RowsToSet(t, d, got).SameAs(want) {
			t.Errorf("%s over %s: got %d, want %d", tc.q, tc.src, len(got), len(want))
		}
	}
}

func TestWindowing(t *testing.T) {
	// Three disjoint a-subtrees: three windows; nested roots share one.
	_, cnt := run(t, `<r><a><b/></a><a><b/></a><a><a><b/></a></a></r>`, "//a//b", false)
	if cnt.Matches != 4 {
		t.Fatalf("matches = %d, want 4", cnt.Matches)
	}
}

func TestPendingBuffer(t *testing.T) {
	// Candidates offered ahead of their window must be buffered and drained
	// when the window opens.
	d := doc(t, `<r><a><b/></a><a><b/></a></r>`)
	q := tpq.MustParse("//a//b")
	var cnt counters.Counters
	c := newCollector(q, counters.NewIO(&cnt, 0), false)

	nodes := d.Nodes()
	var as, bs []Label
	for i := range nodes {
		l := Label{Start: nodes[i].Start, End: nodes[i].End, Level: nodes[i].Level}
		switch d.TypeName(nodes[i].Type) {
		case "a":
			as = append(as, l)
		case "b":
			bs = append(bs, l)
		}
	}
	// Offer ALL b's first (second b is ahead of any window), then the a's.
	c.Add(0, as[0])
	c.Add(1, bs[0])
	c.Add(1, bs[1]) // ahead of window 1: must be buffered, not dropped
	c.Add(0, as[1])
	got := c.Result()
	if len(got) != 2 {
		t.Fatalf("matches = %d, want 2 (pending candidate lost?)", len(got))
	}
}

func TestPendingDropsUncoverable(t *testing.T) {
	d := doc(t, `<r><b/><a><b/></a></r>`)
	q := tpq.MustParse("//a//b")
	var cnt counters.Counters
	c := newCollector(q, counters.NewIO(&cnt, 0), false)
	nodes := d.Nodes()
	// First b precedes every a: buffered then dropped at window open.
	for i := range nodes {
		l := Label{Start: nodes[i].Start, End: nodes[i].End, Level: nodes[i].Level}
		switch d.TypeName(nodes[i].Type) {
		case "b":
			c.Add(1, l)
		case "a":
			c.Add(0, l)
		}
	}
	got := c.Result()
	if len(got) != 1 {
		t.Fatalf("matches = %d, want 1", len(got))
	}
}

func TestDiskBasedSpoolAccounting(t *testing.T) {
	_, mem := run(t, `<r><a><b/><b/><b/><b/><b/></a></r>`, "//a//b", false)
	_, disk := run(t, `<r><a><b/><b/><b/><b/><b/></a></r>`, "//a//b", true)
	if mem.PagesWritten != 0 {
		t.Errorf("memory-based wrote %d pages", mem.PagesWritten)
	}
	if disk.PagesWritten == 0 {
		t.Errorf("disk-based wrote no pages")
	}
	if disk.PagesRead <= mem.PagesRead {
		t.Errorf("disk-based must re-read the spool: %d vs %d", disk.PagesRead, mem.PagesRead)
	}
	if mem.Matches != disk.Matches {
		t.Errorf("approaches disagree: %d vs %d", mem.Matches, disk.Matches)
	}
}

// TestPeakEntries pins what each kind of run holds. A run that flushes
// every window as it closes — disk-based, or bounded — holds its largest
// window; an unbounded memory-based run holds closed windows until they
// reach batchEntries, so at most that many plus one window.
func TestPeakEntries(t *testing.T) {
	q := tpq.MustParse("//a//b")
	peak := func(src string, diskBased bool, first int) int {
		t.Helper()
		var cnt counters.Counters
		c := newCollector(q, counters.NewIO(&cnt, 0), diskBased)
		if first > 0 {
			c.SetStream(first, nil)
		}
		feed(doc(t, src), q, c)
		c.Result()
		if c.MemoryBytes() != int64(c.PeakEntries())*LabelBytes {
			t.Fatalf("MemoryBytes = %d for %d entries", c.MemoryBytes(), c.PeakEntries())
		}
		return c.PeakEntries()
	}

	// Windows of 4 and 6 entries, 2 500 in all.
	var many strings.Builder
	many.WriteString("<r>")
	for i := 0; i < 250; i++ {
		many.WriteString("<a><b/><b/><b/></a><a><b/><b/><b/><b/><b/></a>")
	}
	many.WriteString("</r>")
	if got := peak(many.String(), false, 0); got < batchEntries || got >= batchEntries+6 {
		t.Errorf("unbounded run: PeakEntries = %d, want in [%d, %d)", got, batchEntries, batchEntries+6)
	}
	if got := peak(many.String(), true, 0); got != 6 {
		t.Errorf("disk-based run: PeakEntries = %d, want its largest window, 6", got)
	}
	// Largest window: first a + its three b's = 4 entries.
	small := `<r><a><b/><b/><b/></a><a><b/></a></r>`
	if got := peak(small, false, unreached); got != 4 {
		t.Errorf("bounded run: PeakEntries = %d, want its largest window, 4", got)
	}
	if got := peak(small, false, 0); got != 6 {
		t.Errorf("unbounded run: PeakEntries = %d, want both windows held, 6", got)
	}
}

func TestPreFlushHook(t *testing.T) {
	d := doc(t, `<r><a><b/></a><a><b/></a></r>`)
	q := tpq.MustParse("//a//b")
	var cnt counters.Counters
	c := newCollector(q, counters.NewIO(&cnt, 0), false)
	var regions [][2]int32
	c.PreFlush = func(lo, hi int32) { regions = append(regions, [2]int32{lo, hi}) }
	feed(d, q, c)
	c.Result()
	if len(regions) != 2 {
		t.Fatalf("PreFlush ran %d times, want 2 (one per window)", len(regions))
	}
	for _, r := range regions {
		if r[0] >= r[1] {
			t.Errorf("bad window region %v", r)
		}
	}
}

func TestDuplicateAddsCollapsed(t *testing.T) {
	d := doc(t, `<r><a><b/></a></r>`)
	q := tpq.MustParse("//a//b")
	var cnt counters.Counters
	c := newCollector(q, counters.NewIO(&cnt, 0), false)
	feed(d, q, c)
	feed(d, q, c) // offer everything twice
	got := c.Result()
	if len(got) != 1 {
		t.Fatalf("matches = %d, want 1 (duplicates must collapse)", len(got))
	}
}

// streamDoc builds the shape that motivates partial flushing: one root
// element spanning the whole document (the §VI //site pattern) holding many
// small disjoint subtrees, so the collector's only window would otherwise
// close at end of scan.
func streamDoc(subtrees int) string {
	var b strings.Builder
	b.WriteString("<site>")
	for i := 0; i < subtrees; i++ {
		b.WriteString("<a><b/></a>")
	}
	b.WriteString("</site>")
	return b.String()
}

// candidates lists every (query node, label) pair of the naive generator in
// document order — the order an engine's merged cursors would produce.
func candidates(d *xmltree.Document, q *tpq.Pattern) (qis []int, labels []Label) {
	for id := xmltree.NodeID(0); int(id) < d.NumNodes(); id++ {
		n := d.Node(id)
		name := d.TypeName(n.Type)
		for qi := range q.Nodes {
			if q.Nodes[qi].Label == name {
				qis = append(qis, qi)
				labels = append(labels, Label{Start: n.Start, End: n.End, Level: n.Level})
			}
		}
	}
	return qis, labels
}

// unreached is a quota no test document fills: it arms partial flushing,
// as every bounded run does, without ever stopping the run.
const unreached = 1 << 30

// boundedCollector builds a collector wired the way the engines wire it for
// a bounded run: an interrupter bound and a quota of first matches.
func boundedCollector(t *testing.T, q *tpq.Pattern, first int, after []int32) (*Collector, *engine.Interrupter) {
	t.Helper()
	var cnt counters.Counters
	c := newCollector(q, counters.NewIO(&cnt, 0), false)
	ic := engine.NewInterrupter(nil)
	c.SetInterrupt(&ic)
	c.SetStream(first, after)
	return c, &ic
}

// feedStream replays the candidate stream through Add+Advance the way an
// engine does, passing the next candidate's start as the frontier
// (the document-order minimum of the remaining cursors). It stops early
// when the collector trips the interrupter, as the engine loops do, and
// reports how many matches had been emitted before the final candidate.
func feedStream(c *Collector, ic *engine.Interrupter, qis []int, labels []Label) (midRun int) {
	for i := range qis {
		if ic.Err() != nil {
			return midRun
		}
		c.Add(qis[i], labels[i])
		frontier := int32(1 << 30)
		if i+1 < len(labels) {
			frontier = labels[i+1].Start
		}
		c.Advance(frontier)
		if i+1 < len(labels) {
			midRun = c.Emitted()
		}
	}
	return midRun
}

func TestStreamingPartialFlushOrder(t *testing.T) {
	src := streamDoc(50)
	d := doc(t, src)
	q := tpq.MustParse("//site//a//b")
	var fcnt counters.Counters
	fullC := newCollector(q, counters.NewIO(&fcnt, 0), false)
	feed(d, q, fullC)
	want := fullC.Result()
	if len(want) != 50 {
		t.Fatalf("setup: full run found %d matches, want 50", len(want))
	}

	c, ic := boundedCollector(t, q, unreached, nil)
	qis, labels := candidates(d, q)
	midRun := feedStream(c, ic, qis, labels)
	got := c.Result()

	if midRun == 0 {
		t.Fatal("no matches emitted before the window closed: partial flush never fired")
	}
	if len(got) != len(want) {
		t.Fatalf("bounded run kept %d matches, want %d", len(got), len(want))
	}
	for i := range want {
		if !match.RowLess(got[i], want[i]) && !match.RowLess(want[i], got[i]) {
			continue
		}
		t.Fatalf("match %d out of order or wrong: partial flushes must reproduce document order", i)
	}
	// The partial flushes must have discarded closed subtrees: the resident
	// window stays well below the full candidate count (root + open region),
	// which is the O(limit + open windows) memory claim.
	if c.PeakEntries() >= fullC.PeakEntries() {
		t.Fatalf("partially flushed peak %d entries is no better than the whole window's %d",
			c.PeakEntries(), fullC.PeakEntries())
	}
}

func TestStreamingQuotaStops(t *testing.T) {
	src := streamDoc(50)
	d := doc(t, src)
	q := tpq.MustParse("//site//a//b")

	c, ic := boundedCollector(t, q, 5, nil)
	qis, labels := candidates(d, q)
	fed := 0
	for i := range qis {
		if ic.Err() != nil {
			break
		}
		c.Add(qis[i], labels[i])
		frontier := int32(1 << 30)
		if i+1 < len(labels) {
			frontier = labels[i+1].Start
		}
		c.Advance(frontier)
		fed++
	}
	got := c.Result()
	if c.Emitted() != 5 || len(got) != 5 {
		t.Fatalf("emitted %d (Result holds %d), want exactly the quota of 5", c.Emitted(), len(got))
	}
	if err := ic.Err(); err != engine.ErrStop {
		t.Fatalf("interrupter error = %v, want ErrStop", err)
	}
	if fed == len(qis) {
		t.Fatal("quota stop did not unwind the feed: every candidate was still scanned")
	}
}

func TestAccumulateFirstK(t *testing.T) {
	// first > 0: bounded accumulation (a page).
	src := streamDoc(10)
	d := doc(t, src)
	q := tpq.MustParse("//site//a//b")
	want, _ := run(t, src, "//site//a//b", false)

	c, ic := boundedCollector(t, q, 4, nil)
	qis, labels := candidates(d, q)
	feedStream(c, ic, qis, labels)
	got := c.Result()
	if len(got) != 4 {
		t.Fatalf("accumulated %d matches, want 4", len(got))
	}
	for i := range got {
		if match.RowLess(got[i], want[i]) || match.RowLess(want[i], got[i]) {
			t.Fatalf("match %d is not the i-th match of the full run", i)
		}
	}
}

func TestAfterCursorSkipsWholeWindow(t *testing.T) {
	// Two disjoint a-windows; a cursor rooted at the second a filters out
	// the first window's row (an executor run would not have collected that
	// window at all: its restriction starts the lists at the cursor).
	d := doc(t, `<r><a><b/></a><a><b/></a></r>`)
	q := tpq.MustParse("//a//b")
	var a2 int32
	for _, n := range d.Nodes() {
		if d.TypeName(n.Type) == "a" {
			a2 = n.Start // last assignment wins: the second a
		}
	}
	var cnt counters.Counters
	c := newCollector(q, counters.NewIO(&cnt, 0), false)
	c.SetStream(0, []int32{a2, 0})
	feed(d, q, c)
	got := c.Result()
	if len(got) != 1 {
		t.Fatalf("matches = %d, want 1 (the second window's)", len(got))
	}
}

func TestAfterCursorResumesMidWindow(t *testing.T) {
	// One window with two matches; the cursor names the first, so only the
	// second is delivered — and a cursor naming the last match yields none.
	d := doc(t, `<r><a><b/><b/></a></r>`)
	q := tpq.MustParse("//a//b")
	var aStart int32
	var bStarts []int32
	for _, n := range d.Nodes() {
		switch d.TypeName(n.Type) {
		case "a":
			aStart = n.Start
		case "b":
			bStarts = append(bStarts, n.Start)
		}
	}
	for _, tc := range []struct {
		after []int32
		want  int
	}{
		{[]int32{aStart, bStarts[0]}, 1},
		{[]int32{aStart, bStarts[1]}, 0},
	} {
		var cnt counters.Counters
		c := newCollector(q, counters.NewIO(&cnt, 0), false)
		c.SetStream(0, tc.after)
		feed(d, q, c)
		if got := c.Result(); len(got) != tc.want {
			t.Fatalf("after=%v: matches = %d, want %d", tc.after, len(got), tc.want)
		}
	}
}

func TestResetReusesCollector(t *testing.T) {
	src := streamDoc(10)
	d := doc(t, src)
	q := tpq.MustParse("//site//a//b")
	var cnt counters.Counters
	c := newCollector(q, counters.NewIO(&cnt, 0), false)
	c.SetStream(3, nil)
	feed(d, q, c)
	if got := c.Result(); len(got) != 3 {
		t.Fatalf("first run: %d matches, want 3", len(got))
	}
	// Reset must clear the stream bound, the emitted count, and the window
	// state: the second run is a plain full accumulation.
	var cnt2 counters.Counters
	c.Reset(q, counters.NewIO(&cnt2, 0), nil, false)
	if c.Emitted() != 0 {
		t.Fatalf("Emitted() = %d after Reset, want 0", c.Emitted())
	}
	feed(d, q, c)
	if got := c.Result(); len(got) != 10 {
		t.Fatalf("after Reset: %d matches, want 10 (quota must not persist)", len(got))
	}
	// Reset may bind another query, as a pooled evaluator's collector is
	// moved between plans: one whose root branches (no spine, so no
	// partial flush under a quota) must answer as a fresh collector.
	q2 := tpq.MustParse("//site[//b]//a")
	qis, labels := candidates(d, q2)
	bounded := func(c *Collector, cnt *counters.Counters) [][]match.Cell {
		var ic engine.Interrupter
		c.Reset(q2, counters.NewIO(cnt, 0), nil, false)
		c.SetInterrupt(&ic)
		c.SetStream(4, nil)
		feedStream(c, &ic, qis, labels)
		return c.Result()
	}
	var cnt3, cnt4 counters.Counters
	got, want := bounded(c, &cnt3), bounded(new(Collector), &cnt4)
	if !slices.EqualFunc(got, want, slices.Equal) || cnt3 != cnt4 || c.PeakEntries() != len(labels) {
		t.Fatalf("rebound to %s: %v with %+v and a %d-entry peak, a fresh collector %v with %+v and %d",
			q2, got, cnt3, c.PeakEntries(), want, cnt4, len(labels))
	}
}

func TestAdvanceNoopPaths(t *testing.T) {
	d := doc(t, `<r><a><b/></a></r>`)
	// Unbounded run (no quota): Advance must do nothing.
	q := tpq.MustParse("//a//b")
	var cnt counters.Counters
	c := newCollector(q, counters.NewIO(&cnt, 0), false)
	feed(d, q, c)
	c.Advance(1 << 30)
	if got := c.Result(); len(got) != 1 {
		t.Fatalf("matches = %d, want 1", len(got))
	}
	// Single-node query: the spine is empty, so partial flushing is off
	// even under a quota.
	q1 := tpq.MustParse("//a")
	c1 := newCollector(q1, counters.NewIO(&cnt, 0), false)
	c1.SetStream(1, nil)
	feed(d, q1, c1)
	c1.Advance(1 << 30)
	if got := c1.Result(); len(got) != 1 {
		t.Fatalf("single-node matches = %d, want 1", len(got))
	}
}

func TestPartialFlushNestedRootWaits(t *testing.T) {
	// Two site candidates share one window: the inner root's tuples order
	// after the outer root's still-growing ones, so partial flushing must
	// hold back — and the final result must still be exact.
	var b strings.Builder
	b.WriteString("<site><site>")
	for i := 0; i < 40; i++ {
		b.WriteString("<a><b/></a>")
	}
	b.WriteString("</site></site>")
	d := doc(t, b.String())
	q := tpq.MustParse("//site//a//b")
	want := oracle.Eval(d, q)

	c, ic := boundedCollector(t, q, unreached, nil)
	qis, labels := candidates(d, q)
	midRun := feedStream(c, ic, qis, labels)
	got := c.Result()
	if midRun != 0 {
		t.Fatalf("emitted %d matches before the window closed despite a nested root", midRun)
	}
	if !testutil.RowsToSet(t, d, got).SameAs(want) {
		t.Fatalf("bounded run kept %d matches, oracle %d", len(got), len(want))
	}
}

func TestPartialFlushRespectsCursor(t *testing.T) {
	src := streamDoc(50)
	d := doc(t, src)
	q := tpq.MustParse("//site//a//b")
	qis, labels := candidates(d, q)

	// Cursor past the whole document: nothing is ever emitted, partially or
	// at the final flush.
	c, ic := boundedCollector(t, q, unreached, []int32{1 << 30, 0, 0})
	feedStream(c, ic, qis, labels)
	if got := c.Result(); len(got) != 0 {
		t.Fatalf("cursor past EOF: emitted %d matches, want 0", len(got))
	}

	// Cursor after the only root candidate's start: partial flushing defers,
	// and the final enumeration's cursor filter drops every tuple.
	c2, ic2 := boundedCollector(t, q, unreached, []int32{labels[0].Start + 1, 0, 0})
	feedStream(c2, ic2, qis, labels)
	if got := c2.Result(); len(got) != 0 {
		t.Fatalf("cursor past root start: emitted %d matches, want 0", len(got))
	}
}

func TestPartialFlushDiskSpool(t *testing.T) {
	src := streamDoc(60)
	d := doc(t, src)
	q := tpq.MustParse("//site//a//b")
	var cnt counters.Counters
	c := newCollector(q, counters.NewIO(&cnt, 0), true)
	ic := engine.NewInterrupter(nil)
	c.SetInterrupt(&ic)
	c.SetStream(unreached, nil)
	qis, labels := candidates(d, q)
	midRun := feedStream(c, &ic, qis, labels)
	if got := c.Result(); midRun == 0 || len(got) != 60 {
		t.Fatalf("%d matches (%d before the window closed), want 60 with a partial flush", len(got), midRun)
	}
	if cnt.PagesWritten == 0 || cnt.PagesRead == 0 {
		t.Fatalf("disk-based partial flush did no spool I/O (wrote %d, read %d)", cnt.PagesWritten, cnt.PagesRead)
	}
}

func TestPartialFlushPreFlushExtension(t *testing.T) {
	src := streamDoc(50)
	d := doc(t, src)
	q := tpq.MustParse("//site//a//b")
	c, ic := boundedCollector(t, q, unreached, nil)
	var regions [][2]int32
	c.PreFlush = func(lo, hi int32) { regions = append(regions, [2]int32{lo, hi}) }
	qis, labels := candidates(d, q)
	feedStream(c, ic, qis, labels)
	if got := c.Result(); len(got) != 50 {
		t.Fatalf("bounded run kept %d matches, want 50", len(got))
	}
	if len(regions) < 2 {
		t.Fatalf("PreFlush ran %d times, want at least one partial and one final flush", len(regions))
	}
	for i := 1; i < len(regions); i++ {
		if regions[i][1] < regions[i-1][1] {
			t.Fatalf("PreFlush upper bounds must be non-decreasing: %v", regions)
		}
	}
}

func TestChildAxisLevels(t *testing.T) {
	// pc-edges: only a candidate one level above the child may take its
	// mark, across windows whose candidates sit at different levels.
	cases := []struct{ src, q string }{
		{`<r><a><b/><a><b/></a></a></r>`, "//a/b"},
		{`<r><a><b/></a><x><a><b/></a></x></r>`, "//a/b"},
		{`<r><a><c><b/></c></a><a><b/></a></r>`, "//a/b"}, // miss at one level
	}
	for _, tc := range cases {
		d := doc(t, tc.src)
		q := tpq.MustParse(tc.q)
		want := oracle.Eval(d, q)
		got, _ := run(t, tc.src, tc.q, false)
		if !testutil.RowsToSet(t, d, got).SameAs(want) {
			t.Errorf("%s over %s: got %d, want %d", tc.q, tc.src, len(got), len(want))
		}
	}
}

func TestUnsortedAddsNormalized(t *testing.T) {
	// Candidates offered out of document order inside an open window (as
	// PreFlush extensions are): normalize must restore order and uniqueness.
	d := doc(t, `<r><a><b/><b/></a></r>`)
	q := tpq.MustParse("//a//b")
	var as, bs []Label
	for _, n := range d.Nodes() {
		l := Label{Start: n.Start, End: n.End, Level: n.Level}
		switch d.TypeName(n.Type) {
		case "a":
			as = append(as, l)
		case "b":
			bs = append(bs, l)
		}
	}
	var cnt counters.Counters
	c := newCollector(q, counters.NewIO(&cnt, 0), false)
	c.Add(0, as[0])
	c.Add(1, bs[1]) // out of order
	c.Add(1, bs[0])
	c.Add(1, bs[1]) // duplicate
	if got := c.Result(); len(got) != 2 {
		t.Fatalf("matches = %d, want 2", len(got))
	}
}

func TestSearchStartsAbove(t *testing.T) {
	list := []Label{{Start: 2}, {Start: 4}, {Start: 9}}
	cases := []struct {
		s    int32
		want int
	}{{1, 0}, {2, 1}, {3, 1}, {9, 3}, {10, 3}}
	for _, tc := range cases {
		if got := searchStartsAbove(list, tc.s); got != tc.want {
			t.Errorf("searchStartsAbove(%d) = %d, want %d", tc.s, got, tc.want)
		}
	}
	if got := searchStartsAbove(nil, 0); got != 0 {
		t.Errorf("searchStartsAbove(nil) = %d, want 0", got)
	}
}

func TestFlushWithoutWindowIsNoop(t *testing.T) {
	q := tpq.MustParse("//a")
	var cnt counters.Counters
	c := newCollector(q, counters.NewIO(&cnt, 0), false)
	c.Flush()
	if got := c.Result(); len(got) != 0 {
		t.Fatalf("expected no matches")
	}
}
