package store

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"viewjoin/internal/counters"
	"viewjoin/internal/testutil"
	"viewjoin/internal/tpq"
	"viewjoin/internal/views"
)

// TestPersistRoundTrip: serialize + load every scheme and compare all
// records (including pointers) decoded through cursors.
func TestPersistRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := testutil.RandomDoc(rng, 80, nil)
		v := testutil.RandomPattern(rng, 4, nil)
		m, err := views.Materialize(d, v)
		if err != nil {
			return false
		}
		for _, kind := range []Kind{Tuple, Element, Linked, LinkedPartial} {
			orig, err := Build(m, kind, 256)
			if err != nil {
				t.Logf("Build: %v", err)
				return false
			}
			var buf bytes.Buffer
			n, err := orig.WriteTo(&buf)
			if err != nil {
				t.Logf("WriteTo: %v", err)
				return false
			}
			if n != int64(buf.Len()) {
				t.Logf("WriteTo returned %d, wrote %d", n, buf.Len())
				return false
			}
			got, err := ReadViewStoreBytes(buf.Bytes())
			if err != nil {
				t.Logf("ReadViewStoreBytes(%v): %v", kind, err)
				return false
			}
			if got.Kind != orig.Kind || got.PageSize != orig.PageSize ||
				got.TotalEntries() != orig.TotalEntries() || got.NumPointers() != orig.NumPointers() {
				t.Logf("%v: metadata mismatch", kind)
				return false
			}
			if !got.View.Equal(orig.View) {
				t.Logf("%v: pattern mismatch: %s vs %s", kind, got.View, orig.View)
				return false
			}
			if !sameContent(orig, got) {
				t.Logf("%v: content mismatch", kind)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// sameContent compares two stores record by record through cursors.
func sameContent(a, b *ViewStore) bool {
	var c counters.Counters
	io := counters.NewIO(&c, 0)
	if a.Kind == Tuple {
		ca, cb := a.Tuples.Open(io), b.Tuples.Open(io)
		for ca.Valid() || cb.Valid() {
			if ca.Valid() != cb.Valid() {
				return false
			}
			for j := range ca.Item().Labels {
				if ca.Item().Labels[j] != cb.Item().Labels[j] {
					return false
				}
			}
			ca.Next()
			cb.Next()
		}
		return true
	}
	for q := range a.Lists {
		ca, cb := a.Lists[q].Open(io), b.Lists[q].Open(io)
		for ca.Valid() || cb.Valid() {
			if ca.Valid() != cb.Valid() {
				return false
			}
			if current(ca) != current(cb) {
				return false
			}
			ca.Next()
			cb.Next()
		}
	}
	return true
}

func TestPersistRejectsCorruption(t *testing.T) {
	d := testutil.RandomDoc(rand.New(rand.NewSource(1)), 40, nil)
	m := views.MustMaterialize(d, tpq.MustParse("//a//b"))
	s := MustBuild(m, Linked, 256)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b = append([]byte(nil), b...); b[0] = 'X'; return b }},
		{"bad version", func(b []byte) []byte { b = append([]byte(nil), b...); b[4] = 99; return b }},
		{"bad kind", func(b []byte) []byte { b = append([]byte(nil), b...); b[5] = 200; return b }},
		{"truncated", func(b []byte) []byte { return append([]byte(nil), b[:len(b)/2]...) }},
		{"empty", func(b []byte) []byte { return nil }},
	} {
		if _, err := ReadViewStoreBytes(tc.mutate(good)); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestPersistRejectsWildPointers: flipping pointer bytes in a saved LE view
// must be caught at load time, never panic at evaluation time.
func TestPersistRejectsWildPointers(t *testing.T) {
	d := testutil.RandomDoc(rand.New(rand.NewSource(7)), 60, nil)
	m := views.MustMaterialize(d, tpq.MustParse("//a//b"))
	s := MustBuild(m, Linked, 256)
	if s.NumPointers() == 0 {
		t.Skip("fixture has no pointers")
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	rejected := 0
	// Mutate bytes across the record region; every load must either succeed
	// (mutation hit padding) or fail cleanly.
	for off := len(good) - 1; off > len(good)-600 && off > 0; off -= 7 {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0xFF
		st, err := ReadViewStoreBytes(bad)
		if err != nil {
			rejected++
			continue
		}
		// Load succeeded: scanning must still be safe.
		var c counters.Counters
		io := counters.NewIO(&c, 0)
		for _, l := range st.Lists {
			for cur := l.Open(io); cur.Valid(); cur.Next() {
			}
		}
	}
	if rejected == 0 {
		t.Errorf("no mutation was rejected; validation seems inert")
	}
}
