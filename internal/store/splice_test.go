package store

import (
	"bytes"
	"testing"

	"viewjoin/internal/tpq"
	"viewjoin/internal/views"
	"viewjoin/internal/xmltree"
)

// fragmentOf builds a small single-root fragment of the given labels.
func fragmentOf(t testing.TB, root string, leaves ...string) *xmltree.Document {
	t.Helper()
	b := xmltree.NewBuilder()
	b.Element(root, func() {
		for _, l := range leaves {
			b.Leaf(l)
		}
	})
	return b.MustDocument()
}

func storeBytes(t testing.TB, s *ViewStore) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

func buildOver(t testing.TB, d *xmltree.Document, pat string, kind Kind, pageSize int) *ViewStore {
	t.Helper()
	return MustBuild(views.MustMaterialize(d, tpq.MustParse(pat)), kind, pageSize)
}

var allKinds = []Kind{Tuple, Element, Linked, LinkedPartial}

// emptyCuts cuts every list at the pivot without replacing anything: the
// pure label shift.
func emptyCuts(s *ViewStore, pivot int32) []Cut {
	cuts := make([]Cut, len(s.Lists))
	for q, l := range s.Lists {
		a := l.SeekStart(pivot)
		cuts[q] = Cut{A: a, B: a}
	}
	return cuts
}

// setFrom sets record i of list q to the pointers the views layer computed
// for it in m.
func setFrom(sp *Splicer, m *views.Materialized, q, i int) {
	e := m.Lists[q][i]
	sp.SetPointers(q, i, e.Following, e.Descendant, e.Children)
}

// TestSplicerLabelShift checks the pure label shift against a from-scratch
// build over the updated document, for every scheme: after an update that
// touches no view-type node the successor must be byte-identical to the
// rebuild, a fresh store (no page identity shared with the predecessor), and the predecessor must be untouched.
func TestSplicerLabelShift(t *testing.T) {
	d := wideDoc(t, 40) // 80 b-entries: several pages per segment at 64B
	au, err := d.Apply(xmltree.Update{
		Op:       xmltree.OpInsertBefore,
		Target:   1 + 3*20, // the 21st 'a' subtree
		Fragment: fragmentOf(t, "x", "y", "y"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range allKinds {
		const pageSize = 64
		old := buildOver(t, d, "//a//b", kind, pageSize)
		oldBytes := storeBytes(t, old)
		next := NewSplicer(old, au.Pivot, au.Delta, emptyCuts(old, au.Pivot)).Finish()
		want := buildOver(t, au.New, "//a//b", kind, pageSize)
		if err := CheckEquivalent(next, want); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if got := storeBytes(t, old); !bytes.Equal(got, oldBytes) {
			t.Fatalf("%v: the splice mutated its predecessor", kind)
		}
		// Aliased tokens would charge one epoch's pages as another's.
		tokens := map[uintptr]bool{}
		for _, tok := range pageTokens(old) {
			tokens[tok] = true
		}
		for _, tok := range pageTokens(next) {
			if tokens[tok] {
				t.Fatalf("%v: successor segment reuses page token %d", kind, tok)
			}
		}
	}
}

// pageTokens returns every file identity a cursor over s can charge.
func pageTokens(s *ViewStore) []uintptr {
	if s.Tuples != nil {
		return []uintptr{s.Tuples.seg.token}
	}
	var out []uintptr
	for _, l := range s.Lists {
		for i := uintptr(0); i <= numPtrSegs; i++ {
			out = append(out, l.token+i)
		}
	}
	return out
}

// TestSplicerCut inserts a view-type subtree in the middle of multi-page
// lists: the region's records land in the cut, every record behind it is
// carried over with its pointers re-addressed, and only the region and the
// record before it have their pointers set again.
func TestSplicerCut(t *testing.T) {
	d := wideDoc(t, 40)
	au, err := d.Apply(xmltree.Update{
		Op:       xmltree.OpInsertBefore,
		Target:   1 + 3*20,
		Fragment: fragmentOf(t, "a", "b", "b", "b"),
	})
	if err != nil {
		t.Fatal(err)
	}
	v := tpq.MustParse("//a//b")
	m2 := views.MustMaterialize(au.New, v)
	for _, kind := range []Kind{Element, Linked, LinkedPartial} {
		old := MustBuild(views.MustMaterialize(d, v), kind, 64)
		cuts := emptyCuts(old, au.Pivot)
		for q := range cuts {
			for _, e := range m2.Lists[q] {
				if e.Start >= au.Pivot && e.Start < au.Pivot+au.Delta {
					cuts[q].Region = append(cuts[q].Region, Label{Start: e.Start, End: e.End, Level: e.Level})
				}
			}
		}
		if len(cuts[0].Region) != 1 || len(cuts[1].Region) != 3 {
			t.Fatalf("region holds %d a and %d b records, want 1 and 3", len(cuts[0].Region), len(cuts[1].Region))
		}
		sp := NewSplicer(old, au.Pivot, au.Delta, cuts)
		for q, c := range cuts {
			for i := c.A - 1; i < c.A+len(c.Region); i++ {
				setFrom(sp, m2, q, i)
			}
		}
		if err := CheckEquivalent(sp.Finish(), MustBuild(m2, kind, 64)); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

// TestSplicerPointerClasses replaces whole lists, so that pointer classes
// appear and disappear with their last pointer: a class without a non-null
// pointer must own no segment in the successor, exactly as in Build.
func TestSplicerPointerClasses(t *testing.T) {
	single := xmltree.NewBuilder()
	single.Element("r", func() { single.Element("a", func() { single.Leaf("b") }) })
	one := single.MustDocument() // no following or descendant pointer anywhere
	many := wideDoc(t, 5)
	v := tpq.MustParse("//a//b")
	for _, kind := range []Kind{Element, Linked, LinkedPartial} {
		for _, tc := range []struct{ from, to *xmltree.Document }{{one, many}, {many, one}} {
			old := MustBuild(views.MustMaterialize(tc.from, v), kind, 64)
			m2 := views.MustMaterialize(tc.to, v)
			cuts := make([]Cut, len(old.Lists))
			for q, l := range old.Lists {
				cuts[q].B = l.Entries()
				for _, e := range m2.Lists[q] {
					cuts[q].Region = append(cuts[q].Region, Label{Start: e.Start, End: e.End, Level: e.Level})
				}
			}
			sp := NewSplicer(old, 0, 0, cuts)
			for q := range cuts {
				for i := range m2.Lists[q] {
					setFrom(sp, m2, q, i)
				}
			}
			next, want := sp.Finish(), MustBuild(m2, kind, 64)
			if err := CheckEquivalent(next, want); err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
			if next.NumPointers() != want.NumPointers() {
				t.Fatalf("%v: %d pointers, want %d", kind, next.NumPointers(), want.NumPointers())
			}
		}
	}
}

// TestCheckEquivalentDetects exercises the divergence detectors backing
// the maintenance verification spine.
func TestCheckEquivalentDetects(t *testing.T) {
	d := wideDoc(t, 10)
	a := buildOver(t, d, "//a//b", Linked, 64)
	if err := CheckEquivalent(a, buildOver(t, d, "//a//b", Element, 64)); err == nil {
		t.Fatal("kind mismatch undetected")
	}
	d2 := wideDoc(t, 11)
	if err := CheckEquivalent(a, buildOver(t, d2, "//a//b", Linked, 64)); err == nil {
		t.Fatal("content mismatch undetected")
	}
	ta := buildOver(t, d, "//a//b", Tuple, 64)
	if err := CheckEquivalent(ta, a); err == nil {
		t.Fatal("tuple/list mismatch undetected")
	}
	if err := CheckEquivalent(ta, buildOver(t, d2, "//a//b", Tuple, 64)); err == nil {
		t.Fatal("tuple entry mismatch undetected")
	}
	same := buildOver(t, d, "//a//b", Linked, 64)
	same.Lists[1].pieces[0].src.labels[5] ^= 1
	if err := CheckEquivalent(a, same); err == nil {
		t.Fatal("flipped label byte undetected")
	}
	if err := CheckEquivalent(a, a); err != nil {
		t.Fatal(err)
	}
}
