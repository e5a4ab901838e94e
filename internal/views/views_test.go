package views

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"viewjoin/internal/oracle"
	"viewjoin/internal/testutil"
	"viewjoin/internal/tpq"
	"viewjoin/internal/xmltree"
)

// fig1Doc builds a document consistent with the paper's Fig. 1(a) narrative
// around view v1 = //a//e: a1 contains e1,e2,e3 (and no f); a2 contains f1,
// e4, a nested a3 with e5, then e6.
func fig1Doc(t testing.TB) *xmltree.Document {
	t.Helper()
	b := xmltree.NewBuilder()
	b.Element("r", func() {
		b.Element("a", func() { // a1
			b.Leaf("e") // e1
			b.Leaf("e") // e2
			b.Leaf("e") // e3
		})
		b.Element("a", func() { // a2
			b.Leaf("f")             // f1
			b.Leaf("e")             // e4
			b.Element("a", func() { // a3
				b.Leaf("e") // e5
			})
			b.Leaf("e") // e6
		})
	})
	return b.MustDocument()
}

func TestMaterializeFig1V1(t *testing.T) {
	d := fig1Doc(t)
	m := MustMaterialize(d, tpq.MustParse("//a//e"))

	la, le := &m.Lists[0], &m.Lists[1]
	if len(la.Labels) != 3 {
		t.Fatalf("|L_a| = %d, want 3", len(la.Labels))
	}
	if len(le.Labels) != 6 {
		t.Fatalf("|L_e| = %d, want 6", len(le.Labels))
	}

	// Following pointers in L_e per Example 3.1: e1->e2, e2->e3, e3->null,
	// e4->e6 (not e5: different lowest a-ancestor), e5->null, e6->null.
	wantFollowing := []int32{1, 2, NoPointer, 5, NoPointer, NoPointer}
	for i, w := range wantFollowing {
		if le.Following[i] != w {
			t.Errorf("L_e[%d].Following = %d, want %d", i, le.Following[i], w)
		}
	}

	// Descendant pointers in L_a: a1->null (a2 not nested), a2->a3, a3->null.
	wantDesc := []int32{NoPointer, 2, NoPointer}
	for i, w := range wantDesc {
		if la.Descendant[i] != w {
			t.Errorf("L_a[%d].Descendant = %d, want %d", i, la.Descendant[i], w)
		}
	}

	// Following pointers in L_a (root list, no parent constraint):
	// a1->a2, a2->null (a3 nested inside), a3->null.
	wantAFollow := []int32{1, NoPointer, NoPointer}
	for i, w := range wantAFollow {
		if la.Following[i] != w {
			t.Errorf("L_a[%d].Following = %d, want %d", i, la.Following[i], w)
		}
	}

	// Child (ad) pointers a -> first e descendant: a1->e1, a2->e4, a3->e5.
	wantChild := []int32{0, 3, 4}
	for i, w := range wantChild {
		if got := la.Children[0][i]; got != w {
			t.Errorf("L_a[%d].Children[0] = %d, want %d", i, got, w)
		}
	}

	// Tuple content: 7 (a,e) pairs.
	if got := len(m.Matches()); got != 7 {
		t.Errorf("|Matches| = %d, want 7", got)
	}
	if got := m.TotalEntries(); got != 9 {
		t.Errorf("TotalEntries = %d, want 9", got)
	}
}

func TestMaterializePCEdges(t *testing.T) {
	d := fig1Doc(t)
	// //a/e: direct children only. a1 has e1,e2,e3 as children; a2 has e4 and
	// e6 (e5 is under a3); a3 has e5.
	m := MustMaterialize(d, tpq.MustParse("//a/e"))
	if got := len(m.Lists[0].Labels); got != 3 {
		t.Fatalf("|L_a| = %d, want 3", got)
	}
	if got := len(m.Lists[1].Labels); got != 6 {
		t.Fatalf("|L_e| = %d, want 6", got)
	}
	if got := len(m.Matches()); got != 6 {
		t.Errorf("|Matches| = %d, want 6 (pc pairs)", got)
	}
	// Child pointer must reach the first *child*, not the first descendant:
	// a2's first e child is e4 (position 3).
	if got := m.Lists[0].Children[0][1]; got != 3 {
		t.Errorf("a2 child pointer = %d, want 3 (e4)", got)
	}
}

func TestMaterializeEmptyView(t *testing.T) {
	d := fig1Doc(t)
	m := MustMaterialize(d, tpq.MustParse("//e//f"))
	for q := range m.Lists {
		if n := len(m.Lists[q].Labels); n != 0 {
			t.Errorf("list %d not empty: %d entries", q, n)
		}
	}
	if len(m.Matches()) != 0 {
		t.Errorf("matches not empty")
	}
	// Unknown element type.
	m = MustMaterialize(d, tpq.MustParse("//zz"))
	if m.TotalEntries() != 0 {
		t.Errorf("unknown type should materialize empty lists")
	}
}

func TestSolutionListsPruneNonSolutions(t *testing.T) {
	d := fig1Doc(t)
	// //a//f: only a2 has an f descendant.
	m := MustMaterialize(d, tpq.MustParse("//a//f"))
	if got := len(m.Lists[0].Labels); got != 1 {
		t.Fatalf("|L_a| = %d, want 1 (only a2 has f below)", got)
	}
	if got := len(m.Lists[1].Labels); got != 1 {
		t.Fatalf("|L_f| = %d, want 1", got)
	}
	// Upward pruning: //f//e has no matches; also check a three-level view
	// where the middle type exists but never under the root.
	m = MustMaterialize(d, tpq.MustParse("//r//f//e"))
	if m.TotalEntries() != 0 {
		t.Errorf("//r//f//e should be empty, got %d entries", m.TotalEntries())
	}
}

func TestApplyPolicy(t *testing.T) {
	d := fig1Doc(t)
	le := MustMaterialize(d, tpq.MustParse("//a//e"))
	e := le.ApplyPolicy(NoPointers)
	lep := le.ApplyPolicy(PartialPointers)

	if e.NumPointers() != 0 {
		t.Errorf("E scheme pointers = %d, want 0", e.NumPointers())
	}
	if got, full := lep.NumPointers(), le.NumPointers(); got >= full {
		t.Errorf("LEp pointers = %d, want < LE's %d", got, full)
	}
	// LEp keeps all child pointers.
	for q := range lep.Lists {
		for c := range lep.Lists[q].Children {
			if !slices.Equal(lep.Lists[q].Children[c], le.Lists[q].Children[c]) {
				t.Errorf("LEp changed child pointers of list %d, class %d", q, c)
			}
		}
	}
	// LEp drops adjacent following pointers (e1->e2) and keeps far ones
	// (e4->e6, two entries away).
	if lep.Lists[1].Following[0] != NoPointer {
		t.Errorf("LEp kept adjacent following pointer e1->e2")
	}
	if lep.Lists[1].Following[3] != 5 {
		t.Errorf("LEp dropped far following pointer e4->e6: %d", lep.Lists[1].Following[3])
	}
	// Original untouched.
	if le.Lists[1].Following[0] != 1 {
		t.Errorf("ApplyPolicy mutated the source view")
	}
	// FullPointers is the identity.
	if le.ApplyPolicy(FullPointers) != le {
		t.Errorf("ApplyPolicy(FullPointers) should return the receiver")
	}
}

func TestPolicyString(t *testing.T) {
	if FullPointers.String() != "LE" || PartialPointers.String() != "LEp" || NoPointers.String() != "E" {
		t.Errorf("unexpected policy names: %s %s %s", FullPointers, PartialPointers, NoPointers)
	}
}

// TestSolutionListsMatchOracle property-checks the materializer's solution
// lists and tuple content against the brute-force oracle.
func TestSolutionListsMatchOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := testutil.RandomDoc(rng, 80, nil)
		v := testutil.RandomPattern(rng, 4, nil)
		m, err := Materialize(d, v)
		if err != nil {
			t.Logf("Materialize: %v", err)
			return false
		}
		wantSol := oracle.SolutionNodes(d, v)
		for q := range m.Lists {
			got := m.Lists[q].Labels
			if len(got) != len(wantSol[q]) {
				t.Logf("view %s node %d: |sol| = %d, want %d", v, q, len(got), len(wantSol[q]))
				return false
			}
			for i := range got {
				if got[i] != label(d, wantSol[q][i]) {
					t.Logf("view %s node %d entry %d: %v != node %d", v, q, i, got[i], wantSol[q][i])
					return false
				}
			}
		}
		if !m.Matches().SameAs(oracle.Eval(d, v)) {
			t.Logf("view %s: tuple content mismatch", v)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestChildAxisRootWithNestedSameLabel pins "/a/b" over documents that nest
// a-nodes: only the document root can match "/a", and the a-nodes the
// downward sweep rejects on the way up must not disturb its pc-parent
// bookkeeping for the root.
func TestChildAxisRootWithNestedSameLabel(t *testing.T) {
	d, err := xmltree.ParseString("<a><a><b/></a><b/></a>")
	if err != nil {
		t.Fatal(err)
	}
	m := MustMaterialize(d, tpq.MustParse("/a/b"))
	if got := m.ListSizes(); got[0] != 1 || got[1] != 1 || m.Lists[0].Labels[0] != label(d, d.Root()) {
		t.Fatalf("/a/b over nested a: list sizes %v, want [1 1] with the document root in L_a", got)
	}
	// Randomized, against the oracle: patterns anchored at "/root" over
	// documents that nest the root's label.
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := testutil.RandomDocShaped(rng, testutil.DocShape{MaxNodes: 40, MaxDepth: 3 + rng.Intn(6)},
			[]string{testutil.RootLabel, "a", "b"})
		v := testutil.RandomPattern(rng, 3, []string{"a", "b", "c"})
		v.Nodes[0].Label, v.Nodes[0].Axis = testutil.RootLabel, tpq.Child
		want := oracle.SolutionNodes(d, v)
		for q, l := range MustMaterialize(d, v).Lists {
			if !slices.Equal(l.Labels, labels(d, want[q])) {
				t.Fatalf("seed %d view %s list %d: got %v, oracle %v", seed, v, q, l.Labels, want[q])
			}
		}
	}
}

// TestPointersMatchDefinition property-checks every materialized pointer
// against the §III-A definitions computed by brute force.
func TestPointersMatchDefinition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := testutil.RandomDoc(rng, 60, nil)
		v := testutil.RandomPattern(rng, 4, nil)
		m, err := Materialize(d, v)
		if err != nil {
			return false
		}
		return verifyPointers(t, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// verifyPointers recomputes each pointer per definition and compares.
func verifyPointers(t *testing.T, m *Materialized) bool {
	for q := range m.Lists {
		list := &m.Lists[q]
		p := m.View.Nodes[q].Parent
		for i, ni := range list.Labels {
			// Descendant: first same-type descendant.
			wantDesc := NoPointer
			for j, nj := range list.Labels {
				if ni.Contains(nj) {
					wantDesc = int32(j)
					break
				}
			}
			if list.Descendant[i] != wantDesc {
				t.Logf("view %s list %d entry %d: descendant = %d, want %d", m.View, q, i, list.Descendant[i], wantDesc)
				return false
			}
			// Following: first following with same lowest parent-type ancestor.
			wantF := NoPointer
			for j, nj := range list.Labels {
				if nj.Start <= ni.End {
					continue
				}
				if p != -1 && lowestAnc(m, p, ni) != lowestAnc(m, p, nj) {
					continue
				}
				wantF = int32(j)
				break
			}
			if list.Following[i] != wantF {
				t.Logf("view %s list %d entry %d: following = %d, want %d", m.View, q, i, list.Following[i], wantF)
				return false
			}
			// Child pointers.
			for ci, c := range m.View.Nodes[q].Children {
				want := NoPointer
				for j, nj := range m.Lists[c].Labels {
					if !ni.Contains(nj) {
						continue
					}
					if m.View.Nodes[c].Axis == tpq.Child && nj.Level != ni.Level+1 {
						continue
					}
					want = int32(j)
					break
				}
				if got := list.Children[ci][i]; got != want {
					t.Logf("view %s list %d entry %d child %d: = %d, want %d", m.View, q, i, ci, got, want)
					return false
				}
			}
		}
	}
	return true
}

// lowestAnc finds the position in list p of the lowest entry containing n,
// or -1, by brute force.
func lowestAnc(m *Materialized, p int, n Label) int32 {
	best := int32(-1)
	bestStart := int32(-1)
	for j, nj := range m.Lists[p].Labels {
		if nj.Contains(n) && nj.Start > bestStart {
			best = int32(j)
			bestStart = nj.Start
		}
	}
	return best
}

// label returns node id's region label.
func label(d *xmltree.Document, id xmltree.NodeID) Label {
	n := d.Node(id)
	return Label{Start: n.Start, End: n.End, Level: n.Level}
}

// labels returns the region labels of nodes ids.
func labels(d *xmltree.Document, ids []xmltree.NodeID) []Label {
	out := make([]Label, len(ids))
	for i, id := range ids {
		out[i] = label(d, id)
	}
	return out
}
