package xmltree

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func buildFig1a(t *testing.T) *Document {
	// A tree in the spirit of the paper's Fig. 1(a): nested a-subtrees with
	// b, c, d, e, f elements.
	t.Helper()
	b := NewBuilder()
	b.Element("r", func() {
		b.Element("a", func() {
			b.Element("b", func() {
				b.Element("c", func() {
					b.Leaf("d")
				})
				b.Leaf("e")
			})
			b.Leaf("e")
		})
		b.Element("a", func() {
			b.Leaf("f")
			b.Element("b", func() {
				b.Leaf("d")
			})
			b.Leaf("e")
		})
	})
	d, err := b.Document()
	if err != nil {
		t.Fatalf("Document: %v", err)
	}
	return d
}

func TestBuilderLabels(t *testing.T) {
	d := buildFig1a(t)
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := d.NumNodes(); got != 12 {
		t.Fatalf("NumNodes = %d, want 12", got)
	}
	root := d.Node(d.Root())
	if root.Start != 1 || root.End != int32(2*d.NumNodes()) {
		t.Errorf("root region = [%d,%d], want [1,%d]", root.Start, root.End, 2*d.NumNodes())
	}
	if root.Level != 0 {
		t.Errorf("root level = %d, want 0", root.Level)
	}
	// Every non-root node must be inside its parent and one level below.
	for i := 1; i < d.NumNodes(); i++ {
		n := d.Node(NodeID(i))
		p := d.Node(n.Parent)
		if !p.IsAncestorOf(n) {
			t.Errorf("node %d not inside parent", i)
		}
		if !p.IsParentOf(n) {
			t.Errorf("node %d: parent relation not detected by labels", i)
		}
	}
}

func TestStructuralPredicates(t *testing.T) {
	d := buildFig1a(t)
	as := d.NodesOfType(d.TypeByName("a"))
	if len(as) != 2 {
		t.Fatalf("len(a nodes) = %d, want 2", len(as))
	}
	a1, a2 := d.Node(as[0]), d.Node(as[1])
	if a1.IsAncestorOf(a2) || a2.IsAncestorOf(a1) {
		t.Errorf("sibling a-subtrees must not contain one another")
	}
	if !a2.Follows(a1) {
		t.Errorf("a2 must follow a1")
	}
	if a1.Follows(a2) {
		t.Errorf("a1 must not follow a2")
	}
	ds := d.NodesOfType(d.TypeByName("d"))
	if len(ds) != 2 {
		t.Fatalf("len(d nodes) = %d, want 2", len(ds))
	}
	if !a1.IsAncestorOf(d.Node(ds[0])) {
		t.Errorf("a1 must be ancestor of first d")
	}
	if a1.IsParentOf(d.Node(ds[0])) {
		t.Errorf("a1 must not be parent of first d (two levels apart)")
	}
}

func TestChildrenAndSubtreeSize(t *testing.T) {
	d := buildFig1a(t)
	kids := d.Children(d.Root())
	if len(kids) != 2 {
		t.Fatalf("root has %d children, want 2", len(kids))
	}
	for _, k := range kids {
		if d.TypeName(d.Node(k).Type) != "a" {
			t.Errorf("root child type = %s, want a", d.TypeName(d.Node(k).Type))
		}
	}
	if got := d.SubtreeSize(d.Root()); got != d.NumNodes() {
		t.Errorf("SubtreeSize(root) = %d, want %d", got, d.NumNodes())
	}
	if got := d.SubtreeSize(kids[0]); got != 6 {
		t.Errorf("SubtreeSize(first a) = %d, want 6", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := `<site><people><person><name/></person><person><name/><age/></person></people></site>`
	d, err := ParseString(src)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatalf("Write: %v", err)
	}
	d2, err := ParseString(buf.String())
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if d2.NumNodes() != d.NumNodes() {
		t.Fatalf("round trip node count %d != %d", d2.NumNodes(), d.NumNodes())
	}
	for i := 0; i < d.NumNodes(); i++ {
		a, b := d.Node(NodeID(i)), d2.Node(NodeID(i))
		if d.TypeName(a.Type) != d2.TypeName(b.Type) || a.Start != b.Start || a.End != b.End || a.Level != b.Level {
			t.Fatalf("node %d differs after round trip: %+v vs %+v", i, a, b)
		}
	}
}

func TestParseIgnoresTextAndAttrs(t *testing.T) {
	src := `<a x="1"><!-- comment --><b>text<c/>more</b>tail</a>`
	d, err := ParseString(src)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if d.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", d.NumNodes())
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		``,
		`<a><b></a></b>`,
		`<a></a><b></b>`, // two roots
		`<a>`,            // unclosed
	} {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q): expected error", src)
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	b.End()
	if _, err := b.Document(); err == nil {
		t.Errorf("End without Begin: expected error")
	}
	b = NewBuilder()
	b.Leaf("a")
	b.Leaf("b")
	if _, err := b.Document(); err == nil {
		t.Errorf("two roots: expected error")
	}
	b = NewBuilder()
	b.Begin("a")
	if _, err := b.Document(); err == nil {
		t.Errorf("unclosed element: expected error")
	}
	b = NewBuilder()
	if _, err := b.Document(); err == nil {
		t.Errorf("empty builder: expected error")
	}
}

// TestBuilderChunks builds a document over several of the Builder's
// chunks, ending elements opened in earlier chunks, and checks its labels
// and that it is handed over in an array of exactly its length.
func TestBuilderChunks(t *testing.T) {
	b := NewBuilder()
	b.Element("r", func() {
		for range 1000 {
			b.Element("a", func() {
				b.Element("b", func() { b.Leaf("c") })
			})
		}
	})
	d := b.MustDocument()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	n := d.NumNodes()
	if n != 3001 || cap(d.nodes) != n {
		t.Fatalf("%d nodes in an array of capacity %d, want 3001 in 3001", n, cap(d.nodes))
	}
	if root, last := d.Node(0), d.Node(NodeID(n-1)); root.End != int32(2*n) || last.Level != 3 || last.Start != root.End-4 {
		t.Fatalf("root %+v, last node %+v", root, last)
	}
}

// RandomTree builds a random document with the given rng; exported via the
// test file for reuse by property tests in other packages' tests through
// copy, and used here to property-check label invariants.
func randomTree(rng *rand.Rand, maxNodes int) *Document {
	labels := []string{"a", "b", "c", "d", "e"}
	b := NewBuilder()
	n := 1 + rng.Intn(maxNodes)
	var rec func(depth, budget int) int
	rec = func(depth, budget int) int {
		used := 1
		b.Begin(labels[rng.Intn(len(labels))])
		for budget-used > 0 && rng.Intn(3) != 0 && depth < 12 {
			used += rec(depth+1, budget-used)
		}
		b.End()
		return used
	}
	rec(0, n)
	return b.MustDocument()
}

func TestRandomTreeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomTree(rng, 200)
		if err := d.Validate(); err != nil {
			t.Logf("Validate: %v", err)
			return false
		}
		// Region-label nesting must match parent pointers for every pair.
		for i := 0; i < d.NumNodes(); i++ {
			for j := 0; j < d.NumNodes(); j++ {
				if i == j {
					continue
				}
				a, c := d.Node(NodeID(i)), d.Node(NodeID(j))
				byLabel := a.IsAncestorOf(c)
				byParent := false
				for cur := c.Parent; cur != NoNode; cur = d.Node(cur).Parent {
					if cur == NodeID(i) {
						byParent = true
						break
					}
				}
				if byLabel != byParent {
					t.Logf("ancestor disagreement between labels and parents: %d vs %d", i, j)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestRandomTreeSerializeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomTree(rng, 120)
		var buf strings.Builder
		if err := Write(&buf, d); err != nil {
			return false
		}
		d2, err := ParseString(buf.String())
		if err != nil {
			return false
		}
		if d2.NumNodes() != d.NumNodes() {
			return false
		}
		for i := 0; i < d.NumNodes(); i++ {
			a, b := d.Node(NodeID(i)), d2.Node(NodeID(i))
			if a.Start != b.Start || a.End != b.End || a.Level != b.Level {
				return false
			}
			if d.TypeName(a.Type) != d2.TypeName(b.Type) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestFindByStart(t *testing.T) {
	d := buildFig1a(t)
	for i := 0; i < d.NumNodes(); i++ {
		id := NodeID(i)
		if got := d.FindByStart(d.Node(id).Start); got != id {
			t.Errorf("FindByStart(%d) = %d, want %d", d.Node(id).Start, got, id)
		}
	}
	if got := d.FindByStart(-5); got != NoNode {
		t.Errorf("FindByStart(-5) = %d, want NoNode", got)
	}
}

func TestTypeLookup(t *testing.T) {
	d := buildFig1a(t)
	if d.TypeByName("nosuch") != NoType {
		t.Errorf("TypeByName(nosuch) should be NoType")
	}
	if d.NodesOfType(NoType) != nil {
		t.Errorf("NodesOfType(NoType) should be nil")
	}
	for _, name := range []string{"r", "a", "b", "c", "d", "e", "f"} {
		tid := d.TypeByName(name)
		if tid == NoType {
			t.Fatalf("TypeByName(%s) = NoType", name)
		}
		if d.TypeName(tid) != name {
			t.Errorf("TypeName(TypeByName(%s)) = %s", name, d.TypeName(tid))
		}
		for _, id := range d.NodesOfType(tid) {
			if d.Node(id).Type != tid {
				t.Errorf("NodesOfType(%s) returned node of type %s", name, d.TypeName(d.Node(id).Type))
			}
		}
	}
}
