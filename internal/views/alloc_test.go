package views_test

import (
	"testing"

	"viewjoin/internal/dataset/xmark"
	"viewjoin/internal/store"
	"viewjoin/internal/tpq"
	"viewjoin/internal/views"
)

// materializeAllocCeiling bounds the allocations of one Materialize call
// and the store.Build into LEp that follows it in MaterializeView. The
// set-up path allocates per list, never per entry: a list's labels are
// one array, its pointer columns another, every pointer fill takes a
// constant number of arrays per list and the store one segment per
// present class, so the count does not move with the document: 33 for
// //site//item//name at XMark 0.25 and at XMark 1, where the entry lists
// this layout replaced took 55 and 62. One slice or map entry per list
// entry would put it in the thousands at XMark 1.
const materializeAllocCeiling = 64

// TestMaterializeAllocations holds Materialize of //site//item//name and
// its LEp build under materializeAllocCeiling at XMark 0.25 and at XMark 1
// (about 1 100 and 4 350 entries).
func TestMaterializeAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("generates XMark 1")
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	v := tpq.MustParse("//site//item//name")
	for _, scale := range []float64{0.25, 1} {
		d := xmark.Scale(scale)
		var entries int
		// AllocsPerRun's warm-up call builds the document's type index.
		allocs := testing.AllocsPerRun(3, func() {
			st, err := store.Build(views.MustMaterialize(d, v), store.LinkedPartial, 0)
			if err != nil {
				t.Fatal(err)
			}
			entries = st.TotalEntries()
		})
		t.Logf("XMark %g: %d entries, %.0f allocations", scale, entries, allocs)
		if allocs > materializeAllocCeiling {
			t.Errorf("XMark %g: Materialize(%s) and its LEp build allocate %.0f times for %d entries, ceiling %d",
				scale, v, allocs, entries, materializeAllocCeiling)
		}
	}
}
