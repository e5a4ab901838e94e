package views

import (
	"testing"

	"viewjoin/internal/dataset/xmark"
	"viewjoin/internal/tpq"
)

// materializeAllocCeiling bounds the allocations of one Materialize call.
// The set-up path allocates per list, never per entry: its solution lists
// grow by appending, a few doublings each, and every pointer fill takes a
// constant number of arrays per list, so the count barely moves with the
// document. One slice or map entry per list entry would put it in the
// thousands at XMark 1.
const materializeAllocCeiling = 64

// TestMaterializeAllocations holds Materialize of //site//item//name under
// materializeAllocCeiling at XMark 0.25 and at XMark 1 (about 1 100 and
// 4 350 entries).
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
			entries = MustMaterialize(d, v).TotalEntries()
		})
		t.Logf("XMark %g: %d entries, %.0f allocations", scale, entries, allocs)
		if allocs > materializeAllocCeiling {
			t.Errorf("XMark %g: Materialize(%s) allocates %.0f times for %d entries, ceiling %d",
				scale, v, allocs, entries, materializeAllocCeiling)
		}
	}
}
