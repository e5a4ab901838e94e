package testutil

import (
	"testing"

	"viewjoin/internal/match"
	"viewjoin/internal/xmltree"
)

// RowsToSet resolves an engine's label-native result rows over d to the
// node-id matches the oracle produces, failing t when a cell's end or level
// disagrees with the document node its start label names.
func RowsToSet(t testing.TB, d *xmltree.Document, rows [][]match.Cell) match.Set {
	t.Helper()
	width := 0
	if len(rows) > 0 {
		width = len(rows[0])
	}
	ms, err := match.FromRows(d, rows, width)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		for j, c := range row {
			n := d.Node(ms[i][j])
			if want := (match.Cell{Start: n.Start, End: n.End, Level: n.Level}); c != want {
				t.Fatalf("row %d cell %d = %+v, document node is %+v", i, j, c, want)
			}
		}
	}
	return ms
}
