package testutil

import (
	"math/rand"
	"testing"
	"testing/quick"

	"viewjoin/internal/tpq"
)

func TestRandomDocValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := RandomDoc(rng, 60, nil)
		return d.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRandomPatternValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := RandomPattern(rng, 6, nil)
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestRandomPatternAnchors holds the generator to emitting both root axes,
// with an anchored root always labelled like the random documents' roots.
func TestRandomPatternAnchors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	anchored := 0
	for i := 0; i < 400; i++ {
		p := RandomPattern(rng, 4, nil)
		if (p.Nodes[0].Axis == tpq.Child) != (p.Nodes[0].Label == RootLabel) {
			t.Fatalf("pattern %s: a child-axis root must be /%s and nothing else", p, RootLabel)
		}
		if p.Nodes[0].Axis == tpq.Child {
			anchored++
		}
	}
	if anchored < 20 || anchored > 100 {
		t.Errorf("%d of 400 patterns anchored, want about one in %d", anchored, len(Labels))
	}
}

func TestRandomViewPartitionValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := RandomPattern(rng, 7, nil)
		vs := RandomViewPartition(rng, q)
		return tpq.ValidateViewSet(vs, q) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSingletonAndWholeViews(t *testing.T) {
	q := tpq.MustParse("//a/b[//c]//d")
	s := SingletonViews(q)
	if len(s) != q.Size() {
		t.Fatalf("singleton views = %d, want %d", len(s), q.Size())
	}
	if err := tpq.ValidateViewSet(s, q); err != nil {
		t.Fatal(err)
	}
	w := WholeQueryView(q)
	if len(w) != 1 || !w[0].Equal(q) {
		t.Fatalf("whole-query view wrong")
	}
	if err := tpq.ValidateViewSet(w, q); err != nil {
		t.Fatal(err)
	}
}

func TestPathChunkAndInterleavedViews(t *testing.T) {
	q := tpq.MustParse("//a/b//c/d//e")
	for chunk := 1; chunk <= 5; chunk++ {
		vs := PathChunkViews(q, chunk)
		if err := tpq.ValidateViewSet(vs, q); err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		for _, v := range vs {
			if !v.IsPath() {
				t.Fatalf("chunk view %s is not a path", v)
			}
		}
	}
	for k := 1; k <= 3; k++ {
		vs := InterleavedPathViews(q, k)
		if err := tpq.ValidateViewSet(vs, q); err != nil {
			t.Fatalf("interleave %d: %v", k, err)
		}
	}
	// Interleaving with k=2 must produce the classic //a//c//e + //b//d split.
	vs := InterleavedPathViews(q, 2)
	if len(vs) != 2 || vs[0].Size() != 3 || vs[1].Size() != 2 {
		t.Fatalf("interleave 2 = %v", vs)
	}

	defer func() {
		if recover() == nil {
			t.Errorf("PathChunkViews on a twig must panic")
		}
	}()
	PathChunkViews(tpq.MustParse("//a[//b]//c"), 2)
}

func TestViewsFromGroupingPreservesPCEdges(t *testing.T) {
	q := tpq.MustParse("//a/b/c")
	// All in one group: the view must keep the pc edges.
	vs := ViewsFromGrouping(q, []int{0, 0, 0})
	if len(vs) != 1 {
		t.Fatalf("views = %d, want 1", len(vs))
	}
	for i := 1; i < vs[0].Size(); i++ {
		if vs[0].Nodes[i].Axis != tpq.Child {
			t.Errorf("pc edge lost at node %d", i)
		}
	}
	// Skipping the middle node degrades to an ad edge.
	vs = ViewsFromGrouping(q, []int{0, 1, 0})
	for _, v := range vs {
		if v.NodeByLabel("c") != -1 && v.Size() == 2 {
			if v.Nodes[1].Axis != tpq.Descendant {
				t.Errorf("bridged edge must be ad")
			}
		}
	}
}
