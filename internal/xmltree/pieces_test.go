package xmltree_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"viewjoin/internal/testutil"
	"viewjoin/internal/xmltree"
)

// twin is a document held twice: got is the chain of piece tables Apply
// derives, want the chain of flat arrays the reference splice renumbers.
// Node ids agree between the two, so one Update addresses both.
type twin struct {
	got, want *xmltree.Document
	limit     int // steps that found got's table due to be written out
}

func newTwin(d *xmltree.Document) *twin { return &twin{got: d, want: d} }

// step applies u to both chains and holds every read of the derived
// snapshot to the reference. A second, independent successor of the same
// predecessor takes the bulk reads (Validate, Nodes), so the chain's own
// table keeps growing until Apply writes it out.
func (w *twin) step(u xmltree.Update) error {
	if w.got.NumPieces() >= xmltree.MaxPieces {
		w.limit++
	}
	ref, err := w.want.ApplyFlat(u)
	if err != nil {
		return fmt.Errorf("reference: %v", err)
	}
	ap, err := w.got.Apply(u)
	if err != nil {
		return err
	}
	if ap.Old != w.got || ap.Op != ref.Op || ap.Pivot != ref.Pivot || ap.Delta != ref.Delta ||
		ap.DeadStart != ref.DeadStart || ap.DeadEnd != ref.DeadEnd || ap.DeadID != ref.DeadID ||
		ap.DeadCount != ref.DeadCount || ap.FragBase != ref.FragBase || ap.FragCount != ref.FragCount ||
		!maps.Equal(ap.FragTypes, ref.FragTypes) {
		return fmt.Errorf("Applied %+v, reference %+v", *ap, *ref)
	}
	w.got, w.want = ap.New, ref.New
	if err := sameReads(w.got, w.want); err != nil {
		return err
	}
	bulk, err := ap.Old.Apply(u)
	if err != nil {
		return err
	}
	if err := bulk.New.Validate(); err != nil {
		return err
	}
	if !slices.Equal(bulk.New.Nodes(), w.want.Nodes()) {
		return fmt.Errorf("written-out nodes differ from the reference")
	}
	return nil
}

// sameReads compares everything a Document answers, node by node and tag
// position by tag position.
func sameReads(got, want *xmltree.Document) error {
	n := want.NumNodes()
	if got.NumNodes() != n || got.NumTypes() != want.NumTypes() {
		return fmt.Errorf("%d nodes of %d types, want %d of %d", got.NumNodes(), got.NumTypes(), n, want.NumTypes())
	}
	for id := xmltree.NodeID(0); int(id) < n; id++ {
		g, w := got.Node(id), want.Node(id)
		if g != w || got.TypeName(g.Type) != want.TypeName(w.Type) {
			return fmt.Errorf("node %d = %+v (%s), want %+v (%s)", id, g, got.TypeName(g.Type), w, want.TypeName(w.Type))
		}
		if g, w := got.SubtreeSize(id), want.SubtreeSize(id); g != w {
			return fmt.Errorf("SubtreeSize(%d) = %d, want %d", id, g, w)
		}
		if g, w := got.Children(id), want.Children(id); !slices.Equal(g, w) {
			return fmt.Errorf("Children(%d) = %v, want %v", id, g, w)
		}
	}
	for pos := int32(0); int(pos) <= 2*n+1; pos++ {
		if g, w := got.FindByStart(pos), want.FindByStart(pos); g != w {
			return fmt.Errorf("FindByStart(%d) = %d, want %d", pos, g, w)
		}
	}
	for _, r := range [][2]int{{0, n}, {n / 3, 2 * n / 3}, {n / 2, n / 2}, {n - 1, n}} {
		lo, hi := xmltree.NodeID(r[0]), xmltree.NodeID(r[1])
		if !slices.Equal(got.Range(lo, hi), want.Nodes()[lo:hi]) {
			return fmt.Errorf("Range(%d,%d) differs from the reference", lo, hi)
		}
	}
	var g, w strings.Builder
	if err := xmltree.Write(&g, got); err != nil {
		return err
	}
	if err := xmltree.Write(&w, want); err != nil {
		return err
	}
	if g.String() != w.String() {
		return fmt.Errorf("Write output differs from the reference")
	}
	return nil
}

// run drives steps random updates through a twin, now and then asking a
// snapshot of the chain itself for Nodes() so that its successor starts
// from the write-out.
func run(rng *rand.Rand, steps int) (*twin, error) {
	w := newTwin(testutil.RandomDoc(rng, 30, nil))
	for i := 0; i < steps; i++ {
		labels := testutil.Labels
		if rng.Intn(4) == 0 {
			labels = testutil.ForeignLabels
		}
		u := testutil.RandomUpdate(rng, w.got, labels)
		// A delete high in the tree takes most of the table with it: aim most
		// of them low, so that the table grows to maxPieces between them.
		for u.Op == xmltree.OpDeleteSubtree && w.got.SubtreeSize(u.Target) > 6 && rng.Intn(8) != 0 {
			u.Target = 1 + xmltree.NodeID(rng.Intn(w.got.NumNodes()-1))
		}
		if err := w.step(u); err != nil {
			return w, fmt.Errorf("step %d (%v at %d): %w", i, u.Op, u.Target, err)
		}
		if rng.Intn(60) == 0 {
			w.got.Nodes()
			if err := sameReads(w.got, w.want); err != nil {
				return w, fmt.Errorf("step %d, served from the write-out: %w", i, err)
			}
		}
	}
	return w, nil
}

func TestPiecesAgreeWithFlat(t *testing.T) {
	seeds, limit := 12, 0
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		w, err := run(rand.New(rand.NewSource(int64(seed))), 250)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		limit += w.limit
	}
	if limit < 2*seeds {
		t.Errorf("tables reached maxPieces %d times over %d runs, want several per run", limit, seeds)
	}
}

// TestPiecesNamedSplices pins the splices whose cut does not fall inside
// one piece's node run.
func TestPiecesNamedSplices(t *testing.T) {
	frag := func(s string) *xmltree.Document {
		d, err := xmltree.ParseString(s)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// ids: root 0, a 1, b 2, c 3, d 4, e 5
	const base = "<root><a><b/><c/></a><d><e/></d></root>"
	ins := func(target xmltree.NodeID, s string) xmltree.Update {
		return xmltree.Update{Op: xmltree.OpInsertBefore, Target: target, Fragment: frag(s)}
	}
	app := func(target xmltree.NodeID, s string) xmltree.Update {
		return xmltree.Update{Op: xmltree.OpAppendChild, Target: target, Fragment: frag(s)}
	}
	del := func(target xmltree.NodeID) xmltree.Update {
		return xmltree.Update{Op: xmltree.OpDeleteSubtree, Target: target}
	}
	cases := []struct {
		name  string
		steps []xmltree.Update
	}{
		// The second append pivots on a's end tag, which the first left at the
		// start of a piece. y is node 5 by then: the third cuts its fragment so
		// that a piece owns </y> and no node, the fourth pivots on that piece.
		{"append at a piece boundary", []xmltree.Update{app(1, "<x/>"), app(1, "<y><z/></y>"), app(5, "<p/>"), app(5, "<q/>")}},
		// a's subtree by then spans the base array, two fragments and a fragment
		// nested in one of them.
		{"delete across pieces and a whole fragment", []xmltree.Update{ins(3, "<x><y/></x>"), app(2, "<z/>"), app(4, "<w/>"), del(1), del(1)}},
		// x 2, y 3, z 4, w 5: both land inside the earlier fragment, and w then
		// has its parent x in an earlier piece of the fragment's source.
		{"insert inside a fragment", []xmltree.Update{ins(2, "<x><y><z/></y><w/></x>"), ins(4, "<p><q/></p>"), app(3, "<r/>"), ins(2, "<s/>"), del(4)}},
		{"append on the root", []xmltree.Update{app(0, "<x><y/></x>"), app(0, "<z/>"), ins(1, "<w/>"), app(0, "<x/>")}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := newTwin(frag(base))
			for i, u := range c.steps {
				if err := w.step(u); err != nil {
					t.Fatalf("step %d (%v at %d): %v", i, u.Op, u.Target, err)
				}
			}
		})
	}
}

// FuzzApplyPieces is TestPiecesAgreeWithFlat with the fuzz bytes as the
// random source.
func FuzzApplyPieces(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("append-child on the root, then a delete across it"))
	f.Add([]byte{0xff, 0x00, 0x81, 0x7e, 0x10, 0x20, 0x40, 0x80, 0x01, 0x02, 0x03, 0x05, 0x08, 0x0d, 0x15, 0x22})
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := run(testutil.NewByteRand(data), 160); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTypeIDsStableAcrossUpdates follows surviving nodes through 200 mixed
// updates: the name table is shared between snapshots unless a fragment
// brings a new tag, and a node's type must read the same either way.
func TestTypeIDsStableAcrossUpdates(t *testing.T) {
	for _, vocab := range [][]string{testutil.Labels, append(slices.Clone(testutil.Labels), "n0", "n1", "n2", "n3", "n4", "n5")} {
		rng := rand.New(rand.NewSource(int64(len(vocab))))
		d := testutil.RandomDoc(rng, 60, nil)
		base := d
		// track maps a node of the base document, by id, to its current start
		// label; -1 once it has been deleted.
		track := make([]int32, base.NumNodes())
		for id := range track {
			track[id] = base.Node(xmltree.NodeID(id)).Start
		}
		for step := 0; step < 200; step++ {
			ap, err := d.Apply(testutil.RandomUpdate(rng, d, vocab))
			if err != nil {
				t.Fatal(err)
			}
			d = ap.New
			for id, start := range track {
				if start < 0 {
					continue
				}
				if ap.DeadPos(start) {
					track[id] = -1
					continue
				}
				track[id] = ap.Remap(start)
				was, now := base.Node(xmltree.NodeID(id)), d.Node(d.FindByStart(track[id]))
				if now.Type != was.Type || d.TypeName(now.Type) != base.TypeName(was.Type) {
					t.Fatalf("step %d: base node %d has type %d (%s), had %d (%s)", step, id,
						now.Type, d.TypeName(now.Type), was.Type, base.TypeName(was.Type))
				}
			}
			for tid := 0; tid < ap.Old.NumTypes(); tid++ {
				if name := ap.Old.TypeName(xmltree.TypeID(tid)); d.TypeByName(name) != xmltree.TypeID(tid) {
					t.Fatalf("step %d: type %q moved from %d to %d", step, name, tid, d.TypeByName(name))
				}
			}
		}
	}
}
