package viewjoin

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// saveViewFiles materializes the view set in the given scheme and saves
// each view to a container file, returning the paths.
func saveViewFiles(t *testing.T, d *Document, viewsStr string, scheme StorageScheme) []string {
	t.Helper()
	vs, err := ParseViews(viewsStr)
	if err != nil {
		t.Fatal(err)
	}
	mvs, err := d.MaterializeViews(vs, scheme)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths := make([]string, len(mvs))
	for i, v := range mvs {
		var buf bytes.Buffer
		if _, err := v.SaveView(&buf); err != nil {
			t.Fatal(err)
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("view-%d.vjview", i))
		if err := os.WriteFile(paths[i], buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// TestOpenViewAndLoadViewMmap: a saved file loaded through LoadViewMmap
// and its bytes loaded through LoadViewBytes must both evaluate
// byte-identically to the in-memory path, agree on their size, and release
// cleanly. (The name predates the removal of the OpenView loader.)
func TestOpenViewAndLoadViewMmap(t *testing.T) {
	d := GenerateNasa(120)
	q := MustParseQuery("//field//footnote//para")
	want := EvaluateDirect(d, q)
	paths := saveViewFiles(t, d, "//field//para; //footnote", SchemeLEp)

	fromBytes := make([]*MaterializedView, len(paths))
	mapped := make([]*MaterializedView, len(paths))
	for i, p := range paths {
		img, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if fromBytes[i], err = d.LoadViewBytes(img); err != nil {
			t.Fatal(err)
		}
		if mapped[i], err = d.LoadViewMmap(p); err != nil {
			t.Fatal(err)
		}
		if fromBytes[i].SizeBytes() != mapped[i].SizeBytes() {
			t.Error("sizes disagree between the image and the mapping")
		}
	}

	for name, mvs := range map[string][]*MaterializedView{"bytes": fromBytes, "mmap": mapped} {
		res, err := Evaluate(nil, d, q, mvs, EngineViewJoin, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !identicalMatches(res, want) {
			t.Fatalf("%s: evaluation differs from direct", name)
		}
	}

	for _, mvs := range [][]*MaterializedView{fromBytes, mapped} {
		for _, mv := range mvs {
			if err := mv.Release(); err != nil {
				t.Errorf("release: %v", err)
			}
			if err := mv.Release(); err != nil {
				t.Errorf("second release: %v", err)
			}
		}
	}
}

// TestLoadViewMmapErrors: the structured persistence errors survive the
// mmap path — truncation folds into ErrViewTruncated, foreign documents
// into DocMismatchError, and a failed load leaves no open mapping behind
// (the error path closes it).
func TestLoadViewMmapErrors(t *testing.T) {
	d := GenerateNasa(120)
	paths := saveViewFiles(t, d, "//footnote", SchemeLE)
	img, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	for _, cut := range []int{0, 4, 7, len(img) / 2, len(img) - 1} {
		p := filepath.Join(dir, "trunc.vjview")
		if err := os.WriteFile(p, img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, lerr := d.LoadViewMmap(p)
		if lerr == nil {
			t.Fatalf("cut=%d: truncated mmap load succeeded", cut)
		}
		if cut < 8 && !errors.Is(lerr, ErrViewTruncated) {
			t.Errorf("cut=%d: error %v, want ErrViewTruncated", cut, lerr)
		}
	}

	other := GenerateNasa(64)
	var dm *DocMismatchError
	if _, err := other.LoadViewMmap(paths[0]); !errors.As(err, &dm) {
		t.Errorf("foreign document: error %v, want DocMismatchError", err)
	}

	if _, err := d.LoadViewMmap(filepath.Join(dir, "missing.vjview")); err == nil {
		t.Error("missing file: load succeeded")
	}
}

// TestLoadViewMmapAllocs pins the serving-side cold-load criterion for
// the mmap path: opening, validating, and adopting a saved multi-page
// view through the mapping must stay O(lists) — the PR 4 zero-copy
// allocation criterion must not regress when the heap buffer is replaced
// by a mapping.
func TestLoadViewMmapAllocs(t *testing.T) {
	const pageSize = 256
	d := GenerateNasa(600)
	v, err := d.MaterializeView(MustParseQuery("//field//para"), SchemeLE,
		&MaterializeOptions{PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := v.SaveView(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wide.vjview")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mv, err := d.LoadViewMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	pages := int(mv.SizeBytes() / pageSize)
	mv.Release()

	allocs := testing.AllocsPerRun(20, func() {
		mv, err := d.LoadViewMmap(path)
		if err != nil {
			t.Fatal(err)
		}
		mv.Release()
	})
	t.Logf("mmap load of %d-page view: %.0f allocs", pages, allocs)
	if int(allocs)*5 > pages {
		t.Errorf("mmap view load allocated %.0f times for %d pages; want <= pages/5 (zero-copy)", allocs, pages)
	}
	if int(allocs) > 64 {
		t.Errorf("mmap view load allocated %.0f times; want O(lists), <= 64", allocs)
	}
}
