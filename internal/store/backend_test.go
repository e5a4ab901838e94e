package store

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"viewjoin/internal/testutil"
	"viewjoin/internal/tpq"
	"viewjoin/internal/views"
)

// backendImage builds one LE store and writes its container image to a
// temp file, returning the store, the image bytes, and the file path.
func backendImage(t *testing.T) (*ViewStore, []byte, string) {
	t.Helper()
	d := testutil.RandomDoc(rand.New(rand.NewSource(11)), 80, nil)
	m := views.MustMaterialize(d, tpq.MustParse("//a//b"))
	s := MustBuild(m, Linked, 256)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "view.vjst")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return s, buf.Bytes(), path
}

// TestBackendsLoadIdentically: the same container image adopted from the
// heap and from the file's mapping must produce stores with identical
// content — how the bytes are held is invisible to access.
func TestBackendsLoadIdentically(t *testing.T) {
	orig, img, path := backendImage(t)

	fromHeap, err := ReadViewStoreBytes(img)
	if err != nil {
		t.Fatalf("heap load: %v", err)
	}
	mb, err := OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	if !bytes.Equal(mb.Bytes(), img) {
		t.Error("mapping's bytes differ from the file's")
	}
	fromMap, err := ReadViewStoreBytes(mb.Bytes())
	if err != nil {
		t.Fatalf("mmap load: %v", err)
	}

	if !sameContent(orig, fromHeap) || !sameContent(orig, fromMap) ||
		!sameContent(fromHeap, fromMap) {
		t.Error("heap and mapped loads disagree on content")
	}
}

// TestMmapTruncatedSurfacesCleanly: loading over a mapping of a truncated
// container must fail with the usual truncation error (wrapping
// io.ErrUnexpectedEOF, which the public layer folds into
// ErrViewTruncated) — never a fault or partial store.
func TestMmapTruncatedSurfacesCleanly(t *testing.T) {
	_, img, _ := backendImage(t)
	dir := t.TempDir()
	// Cut at a header boundary, mid-body, and at a deliberately misaligned
	// (non-page-multiple, odd) length.
	for _, cut := range []int{9, len(img) / 2, len(img) - 7, len(img) - 1} {
		path := filepath.Join(dir, "trunc.vjst")
		if err := os.WriteFile(path, img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		mb, err := OpenMmap(path)
		if err != nil {
			t.Fatal(err)
		}
		_, lerr := ReadViewStoreBytes(mb.Bytes())
		if lerr == nil {
			t.Errorf("cut=%d: truncated mapping loaded successfully", cut)
		} else if !errors.Is(lerr, io.ErrUnexpectedEOF) {
			// Cuts inside the body surface as truncation; cuts that leave a
			// self-consistent prefix surface as trailing/validation errors.
			// Either way the error must be clean, which reaching this line
			// (no fault) plus a non-nil error already proves.
			t.Logf("cut=%d: non-EOF load error (ok): %v", cut, lerr)
		}
		if err := mb.Close(); err != nil {
			t.Errorf("cut=%d: close: %v", cut, err)
		}
	}
}

// TestMmapEmptyAndMissing: an empty file maps to an empty image (the
// loader reports truncation), a missing file errors at open.
func TestMmapEmptyAndMissing(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.vjst")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	mb, err := OpenMmap(empty)
	if err != nil {
		t.Fatalf("empty file: %v", err)
	}
	if len(mb.Bytes()) != 0 {
		t.Errorf("empty file mapped to %d bytes", len(mb.Bytes()))
	}
	if _, err := ReadViewStoreBytes(mb.Bytes()); err == nil {
		t.Error("empty image loaded successfully")
	}
	if err := mb.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if _, err := OpenMmap(filepath.Join(dir, "missing.vjst")); err == nil {
		t.Error("missing file opened successfully")
	}
}

// TestMmapCloseIdempotent: Close must be safe to call twice and must
// clear the image.
func TestMmapCloseIdempotent(t *testing.T) {
	_, _, path := backendImage(t)
	mb, err := OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := mb.Close(); err != nil {
		t.Fatal(err)
	}
	if mb.Bytes() != nil {
		t.Error("backend exposes bytes after Close")
	}
	if err := mb.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestOpenMmapAllocs pins the mmap cold-load criterion: opening and
// adopting a multi-hundred-page container through the mapping must stay
// within the same O(lists) allocation bound as the heap path (the PR 4
// zero-copy criterion) — the mapping replaces the heap buffer, it must
// not add per-page or per-record work.
func TestOpenMmapAllocs(t *testing.T) {
	d := wideDoc(t, 600)
	m := views.MustMaterialize(d, tpq.MustParse("//a//b"))
	s := MustBuild(m, Linked, 256)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wide.vjst")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	pages := s.NumPages()
	allocs := testing.AllocsPerRun(20, func() {
		mb, err := OpenMmap(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadViewStoreBytes(mb.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := mb.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("mmap open+load of %d-page store: %.0f allocs", pages, allocs)
	if int(allocs)*5 > pages {
		t.Errorf("mmap load allocated %.0f times for a %d-page store; want <= pages/5 (zero-copy)", allocs, pages)
	}
	if int(allocs) > 64 {
		t.Errorf("mmap load allocated %.0f times; want O(lists), <= 64", allocs)
	}
}
