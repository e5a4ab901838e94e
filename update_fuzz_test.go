package viewjoin

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"viewjoin/internal/testutil"
	"viewjoin/internal/xmltree"
)

// randomPublicUpdate draws a random subtree update against d's current
// snapshot, lifted to the public Update shape (target addressed by start
// label, fragment as its own Document). Fragments draw from the view
// alphabet or the foreign alphabet, so the sequence exercises both
// membership-changing regions and the pure label-shift fast path.
func randomPublicUpdate(rng *rand.Rand, d *Document) Update {
	labels := testutil.Labels
	if rng.Intn(3) == 0 {
		labels = testutil.ForeignLabels
	}
	t := d.tree()
	u := testutil.RandomUpdate(rng, t, labels)
	var op UpdateOp
	switch u.Op {
	case xmltree.OpInsertBefore:
		op = InsertBefore
	case xmltree.OpAppendChild:
		op = AppendChild
	default:
		op = DeleteSubtree
	}
	pub := Update{Op: op, TargetStart: t.Node(u.Target).Start}
	if u.Fragment != nil {
		pub.Fragment = newDocument(u.Fragment)
	}
	return pub
}

// maintainAll applies one update's maintenance to every view of a set.
func maintainAll(t *testing.T, label string, mvs []*MaterializedView, au *AppliedUpdate) {
	t.Helper()
	for i, mv := range mvs {
		if _, err := mv.Maintain(au); err != nil {
			t.Fatalf("%s: maintain view %d (%s): %v", label, i, mv.Pattern(), err)
		}
	}
}

// requireStoreEquality asserts the maintained views serialize byte-for-byte
// identically to views freshly materialized from the document's current
// snapshot — the paper-level invariant that incremental maintenance is
// indistinguishable from re-materialization, down to pointers and padding.
func requireStoreEquality(t *testing.T, label string, maintained []*MaterializedView, d *Document, views []*Query, scheme StorageScheme) {
	t.Helper()
	fresh, err := d.MaterializeViews(views, scheme)
	if err != nil {
		t.Fatalf("%s: oracle materialize: %v", label, err)
	}
	for i := range maintained {
		var got, want bytes.Buffer
		if _, err := maintained[i].SaveView(&got); err != nil {
			t.Fatalf("%s: save maintained view %d: %v", label, i, err)
		}
		if _, err := fresh[i].SaveView(&want); err != nil {
			t.Fatalf("%s: save oracle view %d: %v", label, i, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: view %d (%s): maintained store differs from re-materialized oracle (%d vs %d bytes)",
				label, i, maintained[i].Pattern(), got.Len(), want.Len())
		}
	}
}

// FuzzUpdateDifferential is the update-interleaved differential fuzzer:
// the fuzz bytes drive a random document, a random TPQ with a random
// covering view partition, and a short sequence of random subtree updates
// (insert-before / append-child / delete-subtree). After every update the
// views are maintained incrementally and the harness requires
//
//   - the maintained stores to be byte-identical to views freshly
//     materialized from the updated document (the §IV splice invariant),
//   - every applicable engine to agree exactly with the brute-force
//     oracle over the updated document, sequentially, range-partitioned
//     (K ∈ {2, 4}), and through bounded pages.
//
// Any divergence is a bug in the region-local maintenance or an engine's
// handling of a maintained store. The corpus under
// testdata/fuzz/FuzzUpdateDifferential pins generator inputs derived from
// the §VI workload alongside previously interesting findings, and one
// input per turn of the region logic (region-*: the region widening to a
// chain node on insert and on delete, the left spine of a spanning group,
// pointer classes appearing and disappearing, a list emptied).
func FuzzUpdateDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("xmark-q14-insert"))
	f.Add([]byte("nasa-twig-delete"))
	f.Add([]byte{0x00, 0xff, 0x10, 0x20, 0x42, 0x99, 0x7f, 0x01, 0xee, 0x31})
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0xaa, 0x55, 0xaa, 0x55})
	f.Fuzz(func(t *testing.T, data []byte) {
		rng := testutil.NewByteRand(data)
		doc := newDocument(testutil.RandomDoc(rng, 50, nil))
		pat := testutil.RandomPattern(rng, 4, nil)
		q := &Query{pat}
		part := testutil.RandomViewPartition(rng, pat)
		views := make([]*Query, len(part))
		for i, vp := range part {
			views[i] = &Query{vp}
		}
		steps := 1 + rng.Intn(3)
		pageLim := 1 + rng.Intn(4)
		pageOff := rng.Intn(3)

		type arm struct {
			eng    Engine
			scheme StorageScheme
			mv     []*MaterializedView
		}
		arms := []arm{
			{eng: EngineViewJoin, scheme: SchemeLEp},
			{eng: EngineTwigStack, scheme: SchemeElement},
		}
		if q.IsPath() {
			arms = append(arms,
				arm{eng: EnginePathStack, scheme: SchemeLE},
				arm{eng: EngineInterJoin, scheme: SchemeTuple},
			)
		}
		for i := range arms {
			mv, err := doc.MaterializeViews(views, arms[i].scheme)
			if err != nil {
				t.Fatalf("%v+%v: materialize: %v", arms[i].eng, arms[i].scheme, err)
			}
			arms[i].mv = mv
		}

		for step := 0; step < steps; step++ {
			u := randomPublicUpdate(rng, doc)
			au, err := doc.Apply(u)
			if err != nil {
				t.Fatalf("step %d: apply %v at %d: %v", step, u.Op, u.TargetStart, err)
			}
			want := EvaluateDirect(doc, q)
			for _, a := range arms {
				label := fmt.Sprintf("step %d %v+%v (q=%s)", step, a.eng, a.scheme, q)
				maintainAll(t, label, a.mv, au)
				requireStoreEquality(t, label, a.mv, doc, views, a.scheme)
				p, err := Prepare(doc, q, a.mv, a.eng, nil)
				if err != nil {
					t.Fatalf("%s: prepare: %v", label, err)
				}
				res, err := p.Run()
				if err != nil {
					t.Fatalf("%s: run: %v", label, err)
				}
				if !sameMatches(res, want) {
					t.Fatalf("%s: %d matches, oracle %d", label, len(res.Matches), len(want.Matches))
				}
				for _, k := range []int{2, 4} {
					pres, err := p.RunWith(context.Background(), &RunOptions{Parallelism: k})
					if err != nil {
						t.Fatalf("%s k=%d: %v", label, k, err)
					}
					if !identicalMatches(pres, res) {
						t.Fatalf("%s k=%d: parallel diverged from sequential (%d vs %d matches)",
							label, k, len(pres.Matches), len(res.Matches))
					}
				}
				checkPages(t, label, p, res, pageLim, pageOff, nil, []int{1, 2, 4})
			}
		}
	})
}
