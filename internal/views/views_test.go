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

	la, le := m.Lists[0], m.Lists[1]
	if len(la) != 3 {
		t.Fatalf("|L_a| = %d, want 3", len(la))
	}
	if len(le) != 6 {
		t.Fatalf("|L_e| = %d, want 6", len(le))
	}

	// Following pointers in L_e per Example 3.1: e1->e2, e2->e3, e3->null,
	// e4->e6 (not e5: different lowest a-ancestor), e5->null, e6->null.
	wantFollowing := []int32{1, 2, NoPointer, 5, NoPointer, NoPointer}
	for i, w := range wantFollowing {
		if le[i].Following != w {
			t.Errorf("L_e[%d].Following = %d, want %d", i, le[i].Following, w)
		}
	}

	// Descendant pointers in L_a: a1->null (a2 not nested), a2->a3, a3->null.
	wantDesc := []int32{NoPointer, 2, NoPointer}
	for i, w := range wantDesc {
		if la[i].Descendant != w {
			t.Errorf("L_a[%d].Descendant = %d, want %d", i, la[i].Descendant, w)
		}
	}

	// Following pointers in L_a (root list, no parent constraint):
	// a1->a2, a2->null (a3 nested inside), a3->null.
	wantAFollow := []int32{1, NoPointer, NoPointer}
	for i, w := range wantAFollow {
		if la[i].Following != w {
			t.Errorf("L_a[%d].Following = %d, want %d", i, la[i].Following, w)
		}
	}

	// Child (ad) pointers a -> first e descendant: a1->e1, a2->e4, a3->e5.
	wantChild := []int32{0, 3, 4}
	for i, w := range wantChild {
		if got := la[i].Children[0]; got != w {
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
	if got := len(m.Lists[0]); got != 3 {
		t.Fatalf("|L_a| = %d, want 3", got)
	}
	if got := len(m.Lists[1]); got != 6 {
		t.Fatalf("|L_e| = %d, want 6", got)
	}
	if got := len(m.Matches()); got != 6 {
		t.Errorf("|Matches| = %d, want 6 (pc pairs)", got)
	}
	// Child pointer must reach the first *child*, not the first descendant:
	// a2's first e child is e4 (position 3).
	la := m.Lists[0]
	if la[1].Children[0] != 3 {
		t.Errorf("a2 child pointer = %d, want 3 (e4)", la[1].Children[0])
	}
}

func TestMaterializeEmptyView(t *testing.T) {
	d := fig1Doc(t)
	m := MustMaterialize(d, tpq.MustParse("//e//f"))
	for q, l := range m.Lists {
		if len(l) != 0 {
			t.Errorf("list %d not empty: %d entries", q, len(l))
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
	if got := len(m.Lists[0]); got != 1 {
		t.Fatalf("|L_a| = %d, want 1 (only a2 has f below)", got)
	}
	if got := len(m.Lists[1]); got != 1 {
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
		for i := range lep.Lists[q] {
			for c := range lep.Lists[q][i].Children {
				if lep.Lists[q][i].Children[c] != le.Lists[q][i].Children[c] {
					t.Errorf("LEp changed child pointer at list %d entry %d", q, i)
				}
			}
		}
	}
	// LEp drops adjacent following pointers (e1->e2) and keeps far ones
	// (e4->e6, two entries away).
	if lep.Lists[1][0].Following != NoPointer {
		t.Errorf("LEp kept adjacent following pointer e1->e2")
	}
	if lep.Lists[1][3].Following != 5 {
		t.Errorf("LEp dropped far following pointer e4->e6: %d", lep.Lists[1][3].Following)
	}
	// Original untouched.
	if le.Lists[1][0].Following != 1 {
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
			got := make([]xmltree.NodeID, len(m.Lists[q]))
			for i := range m.Lists[q] {
				got[i] = m.Lists[q][i].Node
			}
			if len(got) != len(wantSol[q]) {
				t.Logf("view %s node %d: |sol| = %d, want %d", v, q, len(got), len(wantSol[q]))
				return false
			}
			for i := range got {
				if got[i] != wantSol[q][i] {
					t.Logf("view %s node %d entry %d: %d != %d", v, q, i, got[i], wantSol[q][i])
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
	if got := m.ListSizes(); got[0] != 1 || got[1] != 1 || m.Lists[0][0].Node != d.Root() {
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
			got := make([]xmltree.NodeID, len(l))
			for i := range l {
				got[i] = l[i].Node
			}
			if !slices.Equal(got, want[q]) {
				t.Fatalf("seed %d view %s list %d: got %v, oracle %v", seed, v, q, got, want[q])
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
	d := m.Doc
	for q, list := range m.Lists {
		p := m.View.Nodes[q].Parent
		for i := range list {
			ni := d.Node(list[i].Node)
			// Descendant: first same-type descendant.
			wantDesc := NoPointer
			for j := range list {
				if d.Node(list[j].Node).Start > ni.Start && d.Node(list[j].Node).End < ni.End {
					wantDesc = int32(j)
					break
				}
			}
			if list[i].Descendant != wantDesc {
				t.Logf("view %s list %d entry %d: descendant = %d, want %d", m.View, q, i, list[i].Descendant, wantDesc)
				return false
			}
			// Following: first following with same lowest parent-type ancestor.
			wantF := NoPointer
			for j := range list {
				nj := d.Node(list[j].Node)
				if nj.Start <= ni.End {
					continue
				}
				if p != -1 && lowestAnc(m, p, ni) != lowestAnc(m, p, nj) {
					continue
				}
				wantF = int32(j)
				break
			}
			if list[i].Following != wantF {
				t.Logf("view %s list %d entry %d: following = %d, want %d", m.View, q, i, list[i].Following, wantF)
				return false
			}
			// Child pointers.
			for ci, c := range m.View.Nodes[q].Children {
				want := NoPointer
				for j := range m.Lists[c] {
					nj := d.Node(m.Lists[c][j].Node)
					if !(nj.Start > ni.Start && nj.End < ni.End) {
						continue
					}
					if m.View.Nodes[c].Axis == tpq.Child && nj.Level != ni.Level+1 {
						continue
					}
					want = int32(j)
					break
				}
				if list[i].Children[ci] != want {
					t.Logf("view %s list %d entry %d child %d: = %d, want %d", m.View, q, i, ci, list[i].Children[ci], want)
					return false
				}
			}
		}
	}
	return true
}

// lowestAnc finds the position in list p of the lowest entry containing n,
// or -1, by brute force.
func lowestAnc(m *Materialized, p int, n xmltree.Node) int32 {
	best := int32(-1)
	bestStart := int32(-1)
	for j := range m.Lists[p] {
		nj := m.Doc.Node(m.Lists[p][j].Node)
		if nj.Start < n.Start && n.End < nj.End && nj.Start > bestStart {
			best = int32(j)
			bestStart = nj.Start
		}
	}
	return best
}
