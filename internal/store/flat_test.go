package store

import (
	"bytes"
	"testing"

	"viewjoin/internal/counters"
	"viewjoin/internal/tpq"
	"viewjoin/internal/views"
	"viewjoin/internal/xmltree"
)

// wideDoc builds a document whose //a//b view spans several pages per
// segment at small page sizes: nAs 'a' elements with two 'b' children each.
func wideDoc(t testing.TB, nAs int) *xmltree.Document {
	t.Helper()
	b := xmltree.NewBuilder()
	b.Element("r", func() {
		for i := 0; i < nAs; i++ {
			b.Element("a", func() {
				b.Leaf("b")
				b.Leaf("b")
			})
		}
	})
	return b.MustDocument()
}

// TestCursorSeekPageBoundaries seeks to the structurally interesting
// record offsets of a multi-page flat list — first record of the file,
// first record of the second page, last record of a page, last record of
// the list, one past the end — for every element-family kind.
func TestCursorSeekPageBoundaries(t *testing.T) {
	d := wideDoc(t, 25) // 50 b-entries
	m := views.MustMaterialize(d, tpq.MustParse("//a//b"))
	const pageSize = 64 // labels: 5 records/page; pointers: 16 records/page

	for _, kind := range []Kind{Element, Linked, LinkedPartial} {
		s := MustBuild(m, kind, pageSize)
		l := s.Lists[1]
		perPage := l.pageSize / labelBytes
		if l.entries < 3*perPage {
			t.Fatalf("%v: fixture too small: %d records", kind, l.entries)
		}
		var c counters.Counters
		io := counters.NewIO(&c, 0)
		cur := l.Open(io)
		for _, tc := range []struct {
			name string
			at   int
		}{
			{"first record", 0},
			{"last record of first page", perPage - 1},
			{"first record of second page", perPage},
			{"last record of list", l.Entries() - 1},
		} {
			cur.Seek(Pointer(tc.at))
			if !cur.Valid() || int(cur.Position()) != tc.at {
				t.Fatalf("%v: seek %s (%d): valid=%v ordinal=%d", kind, tc.name, tc.at, cur.Valid(), int(cur.Position()))
			}
			want := m.Lists[1][tc.at]
			if cur.Label() != (Label{Start: want.Start, End: want.End, Level: want.Level}) {
				t.Errorf("%v: seek %s: wrong record", kind, tc.name)
			}
		}
		// One past the end and nil both invalidate; a Next on an invalid
		// cursor stays invalid.
		cur.Seek(Pointer(l.Entries()))
		if cur.Valid() {
			t.Errorf("%v: seek past end must invalidate", kind)
		}
		cur.Next()
		if cur.Valid() {
			t.Errorf("%v: Next on invalid cursor must stay invalid", kind)
		}
		cur.Seek(NilPointer)
		if cur.Valid() {
			t.Errorf("%v: seek nil must invalidate", kind)
		}
	}
}

// TestCursorResetAndCopyAllKinds exercises the prepared-plan reuse path:
// a cursor drained on one list is Reset onto another and must replay it
// exactly; copies at page boundaries are independent.
func TestCursorResetAndCopyAllKinds(t *testing.T) {
	d := wideDoc(t, 25)
	m := views.MustMaterialize(d, tpq.MustParse("//a//b"))
	empty := views.MustMaterialize(d, tpq.MustParse("//b//a"))

	for _, kind := range []Kind{Element, Linked, LinkedPartial} {
		s := MustBuild(m, kind, 64)
		es := MustBuild(empty, kind, 64)
		var c counters.Counters
		io := counters.NewIO(&c, 0)

		cur := s.Lists[0].Open(io)
		for cur.Valid() {
			cur.Next()
		}
		// Reset onto a different list replays it exactly like a fresh open.
		cur.Reset(s.Lists[1], io)
		fresh := s.Lists[1].Open(io)
		n := 0
		for fresh.Valid() {
			if !cur.Valid() || current(cur) != current(fresh) || int(cur.Position()) != int(fresh.Position()) {
				t.Fatalf("%v: Reset cursor diverged at record %d", kind, n)
			}
			// Copy at the page boundary records: advancing the copy must not
			// move the original.
			if n == s.Lists[1].pageSize/labelBytes {
				cl := *cur
				cl.Next()
				if int(cl.Position()) == int(cur.Position()) {
					t.Fatalf("%v: copy did not advance independently", kind)
				}
				if !cur.Valid() || int(cur.Position()) != n {
					t.Fatalf("%v: advancing copy moved original", kind)
				}
			}
			cur.Next()
			fresh.Next()
			n++
		}
		if cur.Valid() {
			t.Fatalf("%v: Reset cursor has extra records", kind)
		}
		// Reset onto an empty list is immediately invalid, and Reset back
		// onto a populated one recovers.
		cur.Reset(es.Lists[0], io)
		if cur.Valid() {
			t.Errorf("%v: Reset onto empty list must be invalid", kind)
		}
		cur.Reset(s.Lists[0], io)
		if !cur.Valid() || int(cur.Position()) != 0 {
			t.Errorf("%v: Reset after empty list did not recover", kind)
		}
	}
}

// TestScanTouchesEveryPageOnce pins the real-page-boundary property of the
// flat layout: a sequential scan reads exactly the file's pages — each
// labels page and each present pointer-segment page once. This is the §V scan cost: an LE file costs more pages than
// the E file of the same list because its pointer segments are real pages.
func TestScanTouchesEveryPageOnce(t *testing.T) {
	d := wideDoc(t, 25)
	m := views.MustMaterialize(d, tpq.MustParse("//a//b"))
	var ePages, lePages int64
	for _, kind := range []Kind{Element, Linked, LinkedPartial} {
		s := MustBuild(m, kind, 64)
		for q, l := range s.Lists {
			var c counters.Counters
			io := counters.NewIO(&c, 0)
			for cur := l.Open(io); cur.Valid(); cur.Next() {
			}
			if c.PagesRead != int64(l.NumPages()) {
				t.Errorf("%v list %d: scan read %d pages, file has %d", kind, q, c.PagesRead, l.NumPages())
			}
			switch kind {
			case Element:
				ePages += c.PagesRead
			case Linked:
				lePages += c.PagesRead
			}
		}
	}
	if ePages >= lePages {
		t.Errorf("scan cost order violated: E=%d pages, LE=%d pages", ePages, lePages)
	}
	// Tuple file: same property over the single segment.
	s := MustBuild(m, Tuple, 64)
	var c counters.Counters
	io := counters.NewIO(&c, 0)
	for cur := s.Tuples.Open(io); cur.Valid(); cur.Next() {
	}
	if c.PagesRead != int64(s.Tuples.NumPages()) {
		t.Errorf("tuple scan read %d pages, file has %d", c.PagesRead, s.Tuples.NumPages())
	}
}

// TestSourcesUniformAccess reads all four kinds' sizes through the Source
// interface only.
func TestSourcesUniformAccess(t *testing.T) {
	d := wideDoc(t, 5)
	m := views.MustMaterialize(d, tpq.MustParse("//a//b"))
	for _, kind := range []Kind{Tuple, Element, Linked, LinkedPartial} {
		s := MustBuild(m, kind, 128)
		total := 0
		for _, src := range s.Sources() {
			if src.Kind() != kind {
				t.Errorf("%v: source kind %v", kind, src.Kind())
			}
			if src.SizeBytes() != int64(src.NumPages())*int64(s.PageSize) {
				t.Errorf("%v: size %d != %d pages * %d", kind, src.SizeBytes(), src.NumPages(), s.PageSize)
			}
			if src.PayloadBytes() > src.SizeBytes() {
				t.Errorf("%v: payload exceeds size", kind)
			}
			total += src.Entries()
		}
		if total != s.TotalEntries() {
			t.Errorf("%v: sources sum to %d entries, store says %d", kind, total, s.TotalEntries())
		}
	}
}

// TestLoadViewStoreAllocs pins the zero-copy load: deserializing a
// multi-hundred-page store must allocate O(lists), not O(pages) or
// O(records). The old decode-and-rebuild codec allocated at least one
// buffer per page, so requiring pages >= 5*allocs locks in the promised
// >=5x alloc reduction with a wide margin.
func TestLoadViewStoreAllocs(t *testing.T) {
	d := wideDoc(t, 600) // 600 a-entries, 1200 b-entries
	m := views.MustMaterialize(d, tpq.MustParse("//a//b"))
	s := MustBuild(m, Linked, 256)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	pages := s.NumPages()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ReadViewStoreBytes(data); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("load of %d-page store: %.0f allocs", pages, allocs)
	if int(allocs)*5 > pages {
		t.Errorf("load allocated %.0f times for a %d-page store; want <= pages/5 (zero-copy)", allocs, pages)
	}
	if int(allocs) > 64 {
		t.Errorf("load allocated %.0f times; want O(lists), <= 64", allocs)
	}
}
