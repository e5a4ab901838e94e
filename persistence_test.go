package viewjoin

import (
	"bytes"
	"errors"
	"testing"
)

func TestSaveLoadViewRoundTrip(t *testing.T) {
	d := GenerateNasa(120)
	q := MustParseQuery("//field//footnote//para")
	vs, err := ParseViews("//field//para; //footnote")
	if err != nil {
		t.Fatal(err)
	}
	want := EvaluateDirect(d, q)

	for _, scheme := range []StorageScheme{SchemeElement, SchemeLE, SchemeLEp, SchemeTuple} {
		mv, err := d.MaterializeViews(vs, scheme)
		if err != nil {
			t.Fatal(err)
		}
		loaded := make([]*MaterializedView, len(mv))
		for i, v := range mv {
			var buf bytes.Buffer
			n, err := v.SaveView(&buf)
			if err != nil {
				t.Fatalf("%v: SaveView: %v", scheme, err)
			}
			if n != int64(buf.Len()) {
				t.Fatalf("SaveView returned %d, wrote %d", n, buf.Len())
			}
			loaded[i], err = d.LoadViewBytes(buf.Bytes())
			if err != nil {
				t.Fatalf("%v: LoadViewBytes: %v", scheme, err)
			}
			if loaded[i].Scheme() != scheme || loaded[i].NumEntries() != v.NumEntries() ||
				loaded[i].NumPointers() != v.NumPointers() {
				t.Fatalf("%v: loaded view metadata differs", scheme)
			}
		}
		eng := EngineViewJoin
		if scheme == SchemeTuple {
			eng = EngineInterJoin
		}
		res, err := Evaluate(nil, d, q, loaded, eng, nil)
		if err != nil {
			t.Fatalf("%v: evaluate over loaded views: %v", scheme, err)
		}
		if !sameMatches(res, want) {
			t.Fatalf("%v: loaded views give %d matches, want %d", scheme, len(res.Matches), len(want.Matches))
		}
	}
}

// TestLoadViewBytesZeroCopy: loading adopts the image instead of decoding
// it — in every scheme the allocation count is O(lists), far below one per
// page, however many pages the image holds.
func TestLoadViewBytesZeroCopy(t *testing.T) {
	const pageSize = 256
	d := GenerateNasa(600)
	for _, scheme := range []StorageScheme{SchemeElement, SchemeLE, SchemeLEp, SchemeTuple} {
		v, err := d.MaterializeView(MustParseQuery("//field//para"), scheme,
			&MaterializeOptions{PageSize: pageSize})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := v.SaveView(&buf); err != nil {
			t.Fatal(err)
		}
		pages := int(v.SizeBytes() / pageSize)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := d.LoadViewBytes(buf.Bytes()); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%v: load of %d-page view: %.0f allocs", scheme, pages, allocs)
		if int(allocs)*5 > pages || int(allocs) > 64 {
			t.Errorf("%v: load allocated %.0f times for %d pages; want O(lists)", scheme, allocs, pages)
		}
	}
}

func TestLoadViewBytesTruncation(t *testing.T) {
	d := GenerateNasa(100)
	v, err := d.MaterializeView(MustParseQuery("//field//para"), SchemeLE, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := v.SaveView(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for _, n := range []int{0, 4, 8, 12, len(good) / 2, len(good) - 1} {
		_, err := d.LoadViewBytes(good[:n])
		if !errors.Is(err, ErrViewTruncated) {
			t.Errorf("truncation at %d/%d: err = %v, want ErrViewTruncated", n, len(good), err)
		}
	}
	d2 := GenerateNasa(101)
	var mismatch *DocMismatchError
	if _, err := d2.LoadViewBytes(good); !errors.As(err, &mismatch) {
		t.Errorf("foreign document: err = %v, want DocMismatchError", err)
	}
}

func TestLoadViewRejectsWrongDocument(t *testing.T) {
	d1 := GenerateNasa(100)
	d2 := GenerateNasa(101)
	v, err := d1.MaterializeView(MustParseQuery("//field//para"), SchemeLE, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := v.SaveView(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := d2.LoadViewBytes(buf.Bytes()); err == nil {
		t.Fatal("loading against a different document must fail")
	}
}

func TestLoadViewRejectsGarbage(t *testing.T) {
	d := GenerateNasa(50)
	if _, err := d.LoadViewBytes([]byte("short")); err == nil {
		t.Fatal("expected error for truncated input")
	}
	if _, err := d.LoadViewBytes(make([]byte, 64)); err == nil {
		t.Fatal("expected error for garbage input")
	}
}

func TestLoadedViewListSizesAndSelection(t *testing.T) {
	d := GenerateNasa(120)
	v, err := d.MaterializeView(MustParseQuery("//field//para"), SchemeLE, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := v.SaveView(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := d.LoadViewBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a, b := v.ListSizes(), loaded.ListSizes()
	if len(a) != len(b) {
		t.Fatalf("ListSizes length differs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ListSizes[%d]: %d vs %d", i, a[i], b[i])
		}
	}
	// Loaded views participate in cost-based selection.
	q := MustParseQuery("//field//definition//para")
	defV, err := d.MaterializeView(MustParseQuery("//definition"), SchemeLE, nil)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := SelectViews([]*MaterializedView{loaded, defV}, q, DefaultLambda)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 {
		t.Fatalf("selection = %d views, want 2", len(sel))
	}
}
