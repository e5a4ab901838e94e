package viewjoin

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"viewjoin/internal/testutil"
)

// TestSaveViewFileAtomic pins the write-side durability contract: a
// successful SaveViewFile leaves exactly the final container (no temp
// residue), a failed one leaves nothing at the destination, and a reader
// concurrent with repeated saves never observes a truncated container —
// the temp-file-plus-rename protocol makes every visible state either the
// old file or the complete new one.
func TestSaveViewFileAtomic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	doc := newDocument(testutil.RandomDoc(rng, 100, nil))
	views, err := ParseViews("//a//b")
	if err != nil {
		t.Fatal(err)
	}
	mv, err := doc.MaterializeViews(views, SchemeLEp)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "view.vjc")

	n, err := mv[0].SaveViewFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != n {
		t.Fatalf("file is %d bytes, SaveViewFile reported %d", fi.Size(), n)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp residue after successful save: %s", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after one save, want 1", len(entries))
	}
	if v, err := doc.LoadViewMmap(path); err != nil {
		t.Fatalf("saved container does not load: %v", err)
	} else {
		v.Release()
	}

	// A failing save (unwritable destination directory) leaves nothing.
	bad := filepath.Join(dir, "missing", "view.vjc")
	if _, err := mv[0].SaveViewFile(bad); err == nil {
		t.Fatal("save into a missing directory succeeded")
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("failed save left a file: %v", err)
	}

	// Concurrent readers across repeated overwrites: every load succeeds
	// completely — never ErrViewTruncated, never a partial header.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, err := doc.LoadViewMmap(path)
				if err != nil {
					t.Errorf("reader during overwrites: %v", err)
					return
				}
				v.Release()
			}
		}()
	}
	for i := 0; i < 30; i++ {
		if _, err := mv[0].SaveViewFile(path); err != nil {
			t.Fatalf("overwrite %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestSaveViewFileOverMappedView: replacing a container by rename leaves a
// view that has the old file mapped reading the old inode — saving a
// different view over the path changes nothing a live plan sees. (Writing
// the path in place would truncate the file under the mapping.)
func TestSaveViewFileOverMappedView(t *testing.T) {
	d := GenerateNasa(120)
	q := MustParseQuery("//field//footnote//para")
	want := EvaluateDirect(d, q)
	paths := saveViewFiles(t, d, "//field//para; //footnote", SchemeLEp)
	mapped := make([]*MaterializedView, len(paths))
	for i, p := range paths {
		mv, err := d.LoadViewMmap(p)
		if err != nil {
			t.Fatal(err)
		}
		defer mv.Release()
		mapped[i] = mv
	}
	plan, err := Prepare(d, q, mapped, EngineViewJoin, nil)
	if err != nil {
		t.Fatal(err)
	}

	other, err := d.MaterializeView(MustParseQuery("//dataset"), SchemeElement, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if _, err := other.SaveViewFile(p); err != nil {
			t.Fatal(err)
		}
	}

	res, err := plan.Run()
	if err != nil {
		t.Fatalf("run over the mapped first views: %v", err)
	}
	if !identicalMatches(res, want) {
		t.Fatal("prepared plan over the mapped views differs from direct after the files were replaced")
	}
	if res, err = Evaluate(nil, d, q, mapped, EngineTwigStack, nil); err != nil || !identicalMatches(res, want) {
		t.Fatalf("fresh evaluation over the mapped views after the files were replaced: %v", err)
	}
	// The path now names the other view.
	now, err := d.LoadViewMmap(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer now.Release()
	if got := now.Pattern().String(); got != "//dataset" {
		t.Errorf("path holds view %s after the save, want //dataset", got)
	}
}
