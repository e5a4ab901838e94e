package maintain

import (
	"bytes"
	"math/rand"
	"testing"

	"viewjoin/internal/oracle"
	"viewjoin/internal/store"
	"viewjoin/internal/testutil"
	"viewjoin/internal/tpq"
	"viewjoin/internal/xmltree"
)

var kinds = []store.Kind{store.Tuple, store.Element, store.Linked, store.LinkedPartial}

func storeBytes(t testing.TB, s *store.ViewStore) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

func mustStore(t testing.TB, d *xmltree.Document, v *tpq.Pattern, kind store.Kind, pageSize int) *store.ViewStore {
	t.Helper()
	s, err := Rematerialize(d, v, kind, pageSize)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	return s
}

// TestMaintainRandomized is the unit-level differential check: for random
// documents, views, schemes and single updates, the maintained store must
// serialize byte-identically to a from-scratch rematerialization over the
// updated document, while the predecessor store stays untouched. Both
// maintenance paths are exercised by alternating fragment vocabularies.
func TestMaintainRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pageSizes := []int{64, 4096} // small pages stress per-page COW boundaries
	iterations := 200
	if testing.Short() {
		iterations = 40
	}
	for it := 0; it < iterations; it++ {
		d := testutil.RandomDoc(rng, 50, nil)
		v := testutil.RandomPattern(rng, 3, nil)
		var fragLabels []string
		if rng.Intn(2) == 0 {
			fragLabels = testutil.ForeignLabels
		}
		u := testutil.RandomUpdate(rng, d, fragLabels)
		au, err := d.Apply(u)
		if err != nil {
			t.Fatalf("it=%d: apply: %v", it, err)
		}
		wantFast := true
		for i := range v.Nodes {
			if au.FragTypes[v.Nodes[i].Label] {
				wantFast = false
			}
		}
		ps := pageSizes[it%len(pageSizes)]
		for _, k := range kinds {
			old := mustStore(t, d, v, k, ps)
			oldBytes := storeBytes(t, old)
			next, rep, err := View(old, au)
			if err != nil {
				t.Fatalf("it=%d %v: maintain: %v", it, k, err)
			}
			if rep.FastPath != wantFast {
				t.Fatalf("it=%d %v: FastPath=%v, want %v (frag types %v)",
					it, k, rep.FastPath, wantFast, au.FragTypes)
			}
			if err := Verify(next, au.New); err != nil {
				t.Fatalf("it=%d %v op=%v: %v", it, k, u.Op, err)
			}
			want := mustStore(t, au.New, v, k, ps)
			if !bytes.Equal(storeBytes(t, next), storeBytes(t, want)) {
				t.Fatalf("it=%d %v op=%v: maintained bytes differ from oracle", it, k, u.Op)
			}
			if !bytes.Equal(storeBytes(t, old), oldBytes) {
				t.Fatalf("it=%d %v: maintenance mutated the predecessor store", it, k)
			}
			if wantFast && rep.RecomputedEntries != 0 {
				t.Fatalf("it=%d %v: fast path recomputed %d records", it, k, rep.RecomputedEntries)
			}
		}
	}
}

// TestMaintainChain drives a long update sequence through successive
// derivations, verifying every successor against the oracle.
func TestMaintainChain(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	doc := testutil.RandomDoc(rng, 40, nil)
	v := testutil.RandomPattern(rng, 3, nil)
	steps := 30
	if testing.Short() {
		steps = 10
	}
	for _, k := range kinds {
		d := doc
		cur := mustStore(t, d, v, k, 64)
		for i := 0; i < steps; i++ {
			var fragLabels []string
			if i%3 == 0 {
				fragLabels = testutil.ForeignLabels
			}
			au, err := d.Apply(testutil.RandomUpdate(rng, d, fragLabels))
			if err != nil {
				t.Fatalf("%v step %d: %v", k, i, err)
			}
			if cur, _, err = View(cur, au); err != nil {
				t.Fatalf("%v step %d: %v", k, i, err)
			}
			d = au.New
			if err := Verify(cur, d); err != nil {
				t.Fatalf("%v step %d: %v", k, i, err)
			}
		}
	}
}

// TestMaintainAnchoredView covers views rooted at the document root
// ("/root/a"): the documents and the fragments nest the root's label, so the
// ancestor chain holds root-type nodes that can never be members. Verify's
// oracle shares views.SolutionLists with the maintenance path, so list
// membership is also held to the brute-force oracle, which does not.
func TestMaintainAnchoredView(t *testing.T) {
	labels := []string{testutil.RootLabel, "a", "b"}
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := testutil.RandomDocShaped(rng, testutil.DocShape{MaxNodes: 30, MaxDepth: 3 + rng.Intn(5)}, labels)
		v := testutil.RandomPattern(rng, 3, []string{"a", "b", "c"})
		v.Nodes[0].Label, v.Nodes[0].Axis = testutil.RootLabel, tpq.Child
		for _, k := range []store.Kind{store.Linked, store.LinkedPartial, store.Tuple} {
			d, cur := d, mustStore(t, d, v, k, 64)
			for step := 0; step < 8; step++ {
				au, err := d.Apply(testutil.RandomUpdate(rng, d, labels))
				if err != nil {
					t.Fatal(err)
				}
				if cur, _, err = View(cur, au); err != nil {
					t.Fatalf("seed %d %v step %d: %v", seed, k, step, err)
				}
				d = au.New
				if err := Verify(cur, d); err != nil {
					t.Fatalf("seed %d view %s %v step %d: %v", seed, v, k, step, err)
				}
				for q, want := range oracle.SolutionNodes(d, v) {
					if k == store.Tuple {
						break
					}
					l := cur.Lists[q]
					if l.Entries() != len(want) {
						t.Fatalf("seed %d view %s %v step %d list %d: %d records, oracle %d", seed, v, k, step, q, l.Entries(), len(want))
					}
					for i, id := range want {
						if l.LabelAt(i).Start != d.Node(id).Start {
							t.Fatalf("seed %d view %s %v step %d list %d record %d: start %d, oracle %d",
								seed, v, k, step, q, i, l.LabelAt(i).Start, d.Node(id).Start)
						}
					}
				}
			}
		}
	}
}
