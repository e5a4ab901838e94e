package viewjoin_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"viewjoin"
	"viewjoin/internal/workload"
)

const viewStoreGoldenPath = "testdata/view_store_golden.txt"

// viewStoreDigests materializes every distinct view of the catalogue (the
// named queries' view sets and the Table III cases) at XMark 0.25 / Nasa
// 1000 in each storage scheme and returns one line per view and scheme:
// the SHA-256 of its SaveView bytes, then the scheme and the pattern.
func viewStoreDigests(t *testing.T) []string {
	t.Helper()
	xmark, nasa := viewjoin.GenerateXMark(0.25), viewjoin.GenerateNasa(1000)
	byDoc := map[*viewjoin.Document]map[string]bool{xmark: {}, nasa: {}}
	add := func(name string, vs []string) {
		doc := nasa
		if name[0] == 'Q' {
			doc = xmark
		}
		for _, v := range vs {
			byDoc[doc][v] = true
		}
	}
	for name, wq := range workload.All() {
		add(name, patternStrings(wq.Views))
	}
	for _, c := range workload.TableIII() {
		add(c.Name, patternStrings(c.Views))
	}

	var lines []string
	for _, doc := range []*viewjoin.Document{xmark, nasa} {
		label := "nasa"
		if doc == xmark {
			label = "xmark"
		}
		views := make([]string, 0, len(byDoc[doc]))
		for v := range byDoc[doc] {
			views = append(views, v)
		}
		slices.Sort(views)
		for _, scheme := range []viewjoin.StorageScheme{viewjoin.SchemeElement, viewjoin.SchemeLE, viewjoin.SchemeLEp, viewjoin.SchemeTuple} {
			for _, v := range views {
				mv, err := doc.MaterializeView(viewjoin.MustParseQuery(v), scheme, nil)
				if err != nil {
					t.Fatalf("%s %s %s: %v", label, scheme, v, err)
				}
				var buf bytes.Buffer
				if _, err := mv.SaveView(&buf); err != nil {
					t.Fatalf("%s %s %s: save: %v", label, scheme, v, err)
				}
				lines = append(lines, fmt.Sprintf("%x %s %s %s", sha256.Sum256(buf.Bytes()), label, scheme, v))
			}
		}
	}
	return lines
}

func patternStrings[P fmt.Stringer](ps []P) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.String()
	}
	return out
}

// TestViewStoreGolden holds the bytes SaveView writes for every catalogue
// view, in every scheme, to testdata/view_store_golden.txt. The stores are
// the system's persistent format and what the paper's cost model reads, so
// a change to materialization or store building that is meant to be a pure
// speed-up must leave every byte where it was. `-update` rewrites the file
// (with TestCountersGolden's); a change that means to move a store says so.
func TestViewStoreGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("materializes the whole catalogue at benchmark scale")
	}
	got := viewStoreDigests(t)
	if *updateGolden {
		if err := os.WriteFile(viewStoreGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), viewStoreGoldenPath)
		return
	}
	data, err := os.ReadFile(viewStoreGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d view stores built, %d in %s", len(got), len(want), viewStoreGoldenPath)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("view store differs:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
