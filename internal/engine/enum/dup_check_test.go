package enum

import (
	"strings"
	"testing"

	"viewjoin/internal/counters"
	"viewjoin/internal/oracle"
	"viewjoin/internal/tpq"
	"viewjoin/internal/xmltree"
)

// TestPartialFlushDupCheck simulates an engine feeding candidates in
// document order with Advance(frontier) between adds under a quota (so
// partial flushes fire), and checks the output against the oracle for
// duplicates.
func TestPartialFlushDupCheck(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<r><s><a><b>")
	for i := 0; i < 40; i++ {
		sb.WriteString("<a><b/></a>")
	}
	sb.WriteString("</b></a></s></r>")
	src := sb.String()

	d, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	q := tpq.MustParse("//r//s[//a]//b")
	want := oracle.Eval(d, q)

	var cnt counters.Counters
	c := newCollector(q, counters.NewIO(&cnt, 0), false)
	c.SetStream(unreached, nil)

	// Gather all candidates in document order.
	type cand struct {
		qi int
		l  Label
	}
	var cands []cand
	for id := xmltree.NodeID(0); int(id) < d.NumNodes(); id++ {
		n := d.Node(id)
		name := d.TypeName(n.Type)
		for qi := range q.Nodes {
			if q.Nodes[qi].Label == name {
				cands = append(cands, cand{qi, Label{Start: n.Start, End: n.End, Level: n.Level}})
			}
		}
	}
	for i, cd := range cands {
		c.Add(cd.qi, cd.l)
		if i+1 < len(cands) {
			c.Advance(cands[i+1].l.Start)
		}
	}
	got := c.Result()

	t.Logf("kept %d matches, oracle %d", len(got), len(want))
	seen := map[string]int{}
	for _, m := range got {
		var key strings.Builder
		for _, cell := range m {
			key.WriteByte(':')
			key.WriteRune(rune(cell.Start + 64))
		}
		seen[key.String()]++
	}
	dups := 0
	for _, n := range seen {
		if n > 1 {
			dups += n - 1
		}
	}
	if dups > 0 {
		t.Fatalf("duplicate matches kept: %d (kept %d, oracle %d)", dups, len(got), len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("kept %d, oracle %d", len(got), len(want))
	}
}
