package experiments

import (
	"encoding/json"
	"os"
	"testing"
)

// goldenRow is a row of the root package's testdata/counters_golden.json:
// one catalogue query's deterministic cost at XMark 0.25 / Nasa 1000.
type goldenRow struct {
	Key          string `json:"key"`
	Scanned      int64  `json:"scanned"`
	Comparisons  int64  `json:"comparisons"`
	Derefs       int64  `json:"derefs"`
	PagesRead    int64  `json:"pagesRead"`
	PagesWritten int64  `json:"pagesWritten"`
	JumpsTaken   int64  `json:"jumpsTaken"`
	JumpsRefused int64  `json:"jumpsRefused"`
	Matches      int    `json:"matches"`
}

// TestGridMatchesGolden runs every cell of every grid experiment once at
// the golden file's scale and requires its counters to equal the golden
// row at query/cell: the numbers printed beside each time are the ones
// TestCountersGolden pins, and each cell times the evaluation its key
// names.
func TestGridMatchesGolden(t *testing.T) {
	data, err := os.ReadFile("../../testdata/counters_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []goldenRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	golden := map[string]goldenRow{}
	for _, r := range rows {
		golden[r.Key] = r
	}
	cfg := Config{XMarkScale: 0.25, NasaDatasets: 1000, Repeats: 1}.withDefaults()
	cells := 0
	for _, e := range All() {
		for _, g := range e.grids {
			samples, err := g.run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			for i, r := range g.rows {
				for j, c := range g.cells {
					key := r.query.Name + "/" + c.String()
					want, ok := golden[key]
					if !ok {
						t.Errorf("%s: no golden row %s", e.Name, key)
						continue
					}
					s := samples[i][j]
					got := goldenRow{Key: key,
						Scanned: s.stats.ElementsScanned, Comparisons: s.stats.Comparisons,
						Derefs: s.stats.PointerDerefs, PagesRead: s.stats.PagesRead,
						PagesWritten: s.stats.PagesWritten, JumpsTaken: s.stats.JumpsTaken,
						JumpsRefused: s.stats.JumpsRefused, Matches: s.matches}
					if got != want {
						t.Errorf("%s:\n got  %+v\n want %+v", e.Name, got, want)
					}
					cells++
				}
			}
		}
	}
	if cells == 0 {
		t.Fatal("no grid cells ran")
	}
}
