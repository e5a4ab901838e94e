package views

import (
	"slices"
	"testing"

	"viewjoin/internal/oracle"
	"viewjoin/internal/testutil"
)

// FuzzMaterialize holds Materialize to its definitions on inputs the
// fuzzer draws: the bytes drive testutil's generators through
// testutil.ByteSource to a random document over a small vocabulary, so
// that types nest in themselves (the root's label among them, for the
// patterns anchored at "/root"), and a random view. Every list must hold
// exactly the oracle's solution nodes, and every pointer must be the one
// §III-A defines (verifyPointers). The corpus under
// testdata/fuzz/FuzzMaterialize pins its seeds.
func FuzzMaterialize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("materialize"))
	f.Add([]byte{0x00, 0xff, 0x10, 0x20, 0x42, 0x99, 0x7f, 0x01, 0xee, 0x31})
	f.Fuzz(func(t *testing.T, data []byte) {
		rng := testutil.NewByteRand(data)
		vocab := []string{"a", "b", "c", testutil.RootLabel}[:2+rng.Intn(3)]
		d := testutil.RandomDocShaped(rng, testutil.DocShape{MaxNodes: 80, MaxDepth: 3 + rng.Intn(8)}, vocab)
		v := testutil.RandomPattern(rng, 4, []string{"a", "b", "c", "d"})
		m, err := Materialize(d, v)
		if err != nil {
			t.Fatalf("Materialize(%s): %v", v, err)
		}
		for q, ids := range oracle.SolutionNodes(d, v) {
			if got, want := m.Lists[q].Labels, labels(d, ids); !slices.Equal(got, want) {
				t.Fatalf("view %s list %d: %v, oracle %v", v, q, got, want)
			}
		}
		if !verifyPointers(t, m) {
			t.Fatalf("view %s: a pointer differs from its definition", v)
		}
	})
}
