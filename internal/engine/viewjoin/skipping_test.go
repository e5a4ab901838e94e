package viewjoin

import (
	"testing"

	"viewjoin/internal/engine"
	"viewjoin/internal/oracle"
	"viewjoin/internal/store"
	"viewjoin/internal/tpq"
	"viewjoin/internal/xmltree"
)

// skewDoc models the Nasa N1 situation: many field subtrees full of paras,
// footnotes in only a few of them. ViewJoin with LE views must skip the
// paras of footnote-less fields through the view-parent child-pointer
// jumps (align's leading skip).
func skewDoc(t testing.TB, fields, parasPer, footnoteEvery int) *xmltree.Document {
	t.Helper()
	b := xmltree.NewBuilder()
	b.Element("r", func() {
		for i := 0; i < fields; i++ {
			b.Element("field", func() {
				if footnoteEvery > 0 && i%footnoteEvery == 0 {
					b.Element("footnote", func() { b.Leaf("para") })
				}
				for j := 0; j < parasPer; j++ {
					b.Leaf("para")
				}
			})
		}
	})
	return b.MustDocument()
}

// TestLeadingSkipJumpsViaViewParent exercises jumpViaViewParent: the para
// list (view parent: field) must be entered through field's child pointers,
// skipping the paras of fields that cannot match.
func TestLeadingSkipJumpsViaViewParent(t *testing.T) {
	d := skewDoc(t, 60, 10, 12) // 60 fields, 10 paras each, footnote in every 12th
	q := tpq.MustParse("//field//footnote//para")
	vs := tpq.MustParseAll("//field//para; //footnote")
	want := oracle.Eval(d, q)
	if len(want) == 0 {
		t.Fatal("bad fixture")
	}

	gotE, _, cE := evalWith(t, d, q, vs, store.Element, engine.Options{})
	gotLE, _, cLE := evalWith(t, d, q, vs, store.Linked, engine.Options{})
	if !gotE.SameAs(want) || !gotLE.SameAs(want) {
		t.Fatalf("wrong matches: E=%d LE=%d want=%d", len(gotE), len(gotLE), len(want))
	}
	// 55 of 60 fields have no footnote; their ~10 paras each must be skipped
	// with pointers, so LE scans far fewer entries than E.
	if cLE.ElementsScanned*2 > cE.ElementsScanned {
		t.Errorf("LE should scan less than half of E: %d vs %d", cLE.ElementsScanned, cE.ElementsScanned)
	}
	if cLE.PointerDerefs == 0 {
		t.Errorf("no pointers followed")
	}
}

// TestLeadingSkipWithOpenAncestors: when a field with a footnote contains
// paras interleaved around the footnote, the covering guard must keep the
// jump from skipping paras the open window still needs.
func TestLeadingSkipWithOpenAncestors(t *testing.T) {
	b := xmltree.NewBuilder()
	b.Element("r", func() {
		b.Element("field", func() { // matching field: all paras relevant
			b.Leaf("para")
			b.Element("footnote", func() { b.Leaf("para") })
			b.Leaf("para")
		})
		b.Element("field", func() { // barren field: paras skippable
			b.Leaf("para")
			b.Leaf("para")
		})
		b.Element("field", func() { // matching again
			b.Element("footnote", func() { b.Leaf("para") })
			b.Leaf("para")
		})
	})
	d := b.MustDocument()
	q := tpq.MustParse("//field[//footnote]//para")
	vs := tpq.MustParseAll("//field//para; //footnote")
	want := oracle.Eval(d, q)
	for _, kind := range allKinds {
		got, _, _ := evalWith(t, d, q, vs, kind, engine.Options{})
		if !got.SameAs(want) {
			t.Errorf("%v: got %d matches, want %d", kind, len(got), len(want))
		}
	}
}
