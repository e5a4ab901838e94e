package store

import (
	"math/rand"
	"testing"
	"testing/quick"

	"viewjoin/internal/counters"
	"viewjoin/internal/testutil"
	"viewjoin/internal/tpq"
	"viewjoin/internal/views"
	"viewjoin/internal/xmltree"
)

func fig1Doc(t testing.TB) *xmltree.Document {
	t.Helper()
	b := xmltree.NewBuilder()
	b.Element("r", func() {
		b.Element("a", func() {
			b.Leaf("e")
			b.Leaf("e")
			b.Leaf("e")
		})
		b.Element("a", func() {
			b.Leaf("f")
			b.Leaf("e")
			b.Element("a", func() { b.Leaf("e") })
			b.Leaf("e")
		})
	})
	return b.MustDocument()
}

// readAll decodes a whole list through a cursor.
func readAll(t *testing.T, l *ListFile) []record {
	t.Helper()
	var c counters.Counters
	cur := l.Open(counters.NewIO(&c, 0))
	var out []record
	for cur.Valid() {
		out = append(out, current(cur))
		cur.Next()
	}
	if len(out) != l.Entries() {
		t.Fatalf("cursor read %d entries, file says %d", len(out), l.Entries())
	}
	return out
}

func TestBuildAndScanAllKinds(t *testing.T) {
	d := fig1Doc(t)
	m := views.MustMaterialize(d, tpq.MustParse("//a//e"))

	for _, kind := range []Kind{Element, Linked, LinkedPartial} {
		s := MustBuild(m, kind, 128) // tiny pages to force multi-page files
		if len(s.Lists) != 2 {
			t.Fatalf("%v: lists = %d, want 2", kind, len(s.Lists))
		}
		for q, l := range s.Lists {
			items := readAll(t, l)
			want := m.Lists[q]
			if len(items) != len(want) {
				t.Fatalf("%v list %d: %d items, want %d", kind, q, len(items), len(want))
			}
			for i := range items {
				if items[i].Start != want[i].Start || items[i].End != want[i].End || items[i].Level != want[i].Level {
					t.Errorf("%v list %d entry %d: labels differ", kind, q, i)
				}
				if kind == Element && (!items[i].Following.IsNil() || !items[i].Descendant.IsNil()) {
					t.Errorf("E scheme entry has pointers")
				}
			}
		}
		if kind == Element && s.NumPointers() != 0 {
			t.Errorf("E scheme NumPointers = %d", s.NumPointers())
		}
	}

	le := MustBuild(m, Linked, 128)
	lep := MustBuild(m, LinkedPartial, 128)
	e := MustBuild(m, Element, 128)
	if !(e.SizeBytes() <= lep.SizeBytes() && lep.SizeBytes() <= le.SizeBytes()) {
		t.Errorf("size order violated: E=%d LEp=%d LE=%d", e.SizeBytes(), lep.SizeBytes(), le.SizeBytes())
	}
	if !(lep.NumPointers() < le.NumPointers()) {
		t.Errorf("pointer order violated: LEp=%d LE=%d", lep.NumPointers(), le.NumPointers())
	}
}

// TestPointerSeek follows every materialized pointer and checks it lands on
// the record the views layer pointed at.
func TestPointerSeek(t *testing.T) {
	d := fig1Doc(t)
	m := views.MustMaterialize(d, tpq.MustParse("//a//e"))
	s := MustBuild(m, Linked, 64)

	var c counters.Counters
	io := counters.NewIO(&c, 0)
	for q, l := range s.Lists {
		cur := l.Open(io)
		for i := 0; cur.Valid(); i, _ = i+1, 0 {
			src := m.Lists[q][i]
			if src.Following != views.NoPointer {
				probe := l.Open(io)
				probe.Seek(cur.Following())
				if !probe.Valid() {
					t.Fatalf("list %d entry %d: following seek invalid", q, i)
				}
				if probe.Start() != m.Lists[q][src.Following].Start {
					t.Errorf("list %d entry %d: following landed on start %d, want %d",
						q, i, probe.Start(), m.Lists[q][src.Following].Start)
				}
			} else if !cur.Following().IsNil() {
				t.Errorf("list %d entry %d: unexpected following pointer", q, i)
			}
			for ci := range m.View.Nodes[q].Children {
				cidx := m.View.Nodes[q].Children[ci]
				if src.Children[ci] == views.NoPointer {
					continue
				}
				probe := s.Lists[cidx].Open(io)
				probe.Seek(cur.Child(ci))
				want := m.Lists[cidx][src.Children[ci]].Start
				if !probe.Valid() || probe.Start() != want {
					t.Errorf("list %d entry %d child %d: seek mismatch", q, i, ci)
				}
			}
			cur.Next()
		}
	}
	if c.PointerDerefs == 0 {
		t.Errorf("no pointer dereferences counted")
	}
}

func TestTupleFile(t *testing.T) {
	d := fig1Doc(t)
	m := views.MustMaterialize(d, tpq.MustParse("//a//e"))
	s := MustBuild(m, Tuple, 64)
	if s.Tuples == nil || len(s.Lists) != 0 {
		t.Fatalf("tuple build should populate Tuples only")
	}
	if s.Tuples.Entries() != 7 {
		t.Fatalf("tuples = %d, want 7", s.Tuples.Entries())
	}
	if s.Tuples.Arity() != 2 {
		t.Fatalf("arity = %d, want 2", s.Tuples.Arity())
	}
	var c counters.Counters
	cur := s.Tuples.Open(counters.NewIO(&c, 0))
	prev := int32(-1)
	n := 0
	for ; cur.Valid(); cur.Next() {
		it := cur.Item()
		if !it.Labels[0].Contains(it.Labels[1]) {
			t.Errorf("tuple %d: a does not contain e", cur.Index())
		}
		if it.Labels[0].Start < prev {
			t.Errorf("tuples not sorted by composite start key")
		}
		prev = it.Labels[0].Start
		n++
	}
	if n != 7 {
		t.Errorf("cursor visited %d tuples, want 7", n)
	}
}

func TestEmptyView(t *testing.T) {
	d := fig1Doc(t)
	m := views.MustMaterialize(d, tpq.MustParse("//e//f"))
	for _, kind := range []Kind{Tuple, Element, Linked, LinkedPartial} {
		s := MustBuild(m, kind, 0)
		if s.TotalEntries() != 0 {
			t.Errorf("%v: entries = %d, want 0", kind, s.TotalEntries())
		}
		var c counters.Counters
		io := counters.NewIO(&c, 0)
		if kind == Tuple {
			if s.Tuples.Open(io).Valid() {
				t.Errorf("%v: cursor on empty file is valid", kind)
			}
		} else {
			for _, l := range s.Lists {
				if l.Open(io).Valid() {
					t.Errorf("%v: cursor on empty list is valid", kind)
				}
			}
		}
	}
}

func TestIOAccounting(t *testing.T) {
	d := fig1Doc(t)
	m := views.MustMaterialize(d, tpq.MustParse("//a//e"))
	s := MustBuild(m, Linked, 64) // several pages

	var c counters.Counters
	io := counters.NewIO(&c, 0)
	cur := s.Lists[1].Open(io)
	for cur.Valid() {
		cur.Next()
	}
	if c.ElementsScanned != int64(s.Lists[1].Entries()) {
		t.Errorf("ElementsScanned = %d, want %d", c.ElementsScanned, s.Lists[1].Entries())
	}
	if c.PagesRead == 0 {
		t.Errorf("PagesRead = 0, want > 0")
	}

	// A second scan pays for its pages again: there is no cache.
	firstScan := c.PagesRead
	for cur := s.Lists[1].Open(io); cur.Valid(); cur.Next() {
	}
	if c.PagesRead != 2*firstScan {
		t.Errorf("two scans read %d pages, want %d", c.PagesRead, 2*firstScan)
	}
}

func TestKindStrings(t *testing.T) {
	if Tuple.String() != "T" || Element.String() != "E" || Linked.String() != "LE" || LinkedPartial.String() != "LEp" {
		t.Errorf("kind names wrong")
	}
}

// TestRoundTripProperty checks, on random documents and views, that every
// scheme's on-disk form decodes back to exactly the materialized content.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := testutil.RandomDoc(rng, 80, nil)
		v := testutil.RandomPattern(rng, 4, nil)
		m, err := views.Materialize(d, v)
		if err != nil {
			return false
		}
		pageSize := 64 + rng.Intn(3)*64
		for _, scheme := range []struct {
			kind   Kind
			policy views.PointerPolicy
		}{{Element, views.NoPointers}, {Linked, views.FullPointers}, {LinkedPartial, views.PartialPointers}} {
			kind, policy := scheme.kind, scheme.policy
			s, err := Build(m, kind, pageSize)
			if err != nil {
				t.Logf("Build(%v): %v", kind, err)
				return false
			}
			mm := m.ApplyPolicy(policy)
			var c counters.Counters
			io := counters.NewIO(&c, 0)
			for q, l := range s.Lists {
				cur := l.Open(io)
				for i := range mm.Lists[q] {
					if !cur.Valid() {
						t.Logf("%v list %d: cursor ended early at %d", kind, q, i)
						return false
					}
					e := &mm.Lists[q][i]
					it := current(cur)
					if it.Start != e.Start || it.End != e.End || it.Level != e.Level {
						t.Logf("%v list %d entry %d: label mismatch", kind, q, i)
						return false
					}
					if (e.Following == views.NoPointer) != it.Following.IsNil() ||
						(e.Descendant == views.NoPointer) != it.Descendant.IsNil() {
						t.Logf("%v list %d entry %d: pointer presence mismatch", kind, q, i)
						return false
					}
					cur.Next()
				}
				if cur.Valid() {
					t.Logf("%v list %d: extra entries", kind, q)
					return false
				}
			}
		}
		// Tuple content round-trip.
		s, err := Build(m, Tuple, pageSize)
		if err != nil {
			// Tuples wider than a page are a legitimate build error only for
			// absurd arities; with 4-node views and >=64B pages it must fit.
			t.Logf("Build(Tuple): %v", err)
			return false
		}
		var c counters.Counters
		cur := s.Tuples.Open(counters.NewIO(&c, 0))
		ms := m.Matches()
		for i := range ms {
			if !cur.Valid() {
				return false
			}
			for j, id := range ms[i] {
				n := d.Node(id)
				l := cur.Item().Labels[j]
				if l.Start != n.Start || l.End != n.End || l.Level != n.Level {
					return false
				}
			}
			cur.Next()
		}
		return !cur.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
