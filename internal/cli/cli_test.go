package cli

import (
	"os"
	"path/filepath"
	"testing"
)

func TestLoadDocument(t *testing.T) {
	if d, err := LoadDocument(0.01, 0, ""); err != nil || d.NumNodes() == 0 {
		t.Errorf("xmark: %v", err)
	}
	if d, err := LoadDocument(0, 10, ""); err != nil || d.NumNodes() == 0 {
		t.Errorf("nasa: %v", err)
	}
	if _, err := LoadDocument(0, 0, ""); err == nil {
		t.Errorf("no source: expected error")
	}
	if _, err := LoadDocument(0, 0, "/nonexistent.xml"); err == nil {
		t.Errorf("missing file: expected error")
	}

	path := filepath.Join(t.TempDir(), "doc.xml")
	if err := os.WriteFile(path, []byte("<a><b/></a>"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := LoadDocument(0, 0, path)
	if err != nil || d.NumNodes() != 2 {
		t.Errorf("file: %v, %d nodes", err, d.NumNodes())
	}
}

func TestViewFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"01.vjview", "00.vjview", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := ViewFiles(filepath.Join(dir, "*.vjview"))
	if err != nil || len(paths) != 2 || filepath.Base(paths[0]) != "00.vjview" {
		t.Errorf("ViewFiles: %v, %v; want 00.vjview then 01.vjview", paths, err)
	}
	if _, err := ViewFiles(filepath.Join(dir, "*.none")); err == nil {
		t.Error("a glob matching nothing: expected error")
	}
	if _, err := ViewFiles("["); err == nil {
		t.Error("a malformed glob: expected error")
	}
}
