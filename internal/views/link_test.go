package views

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"viewjoin/internal/testutil"
	"viewjoin/internal/xmltree"
)

// labelList reads a materialized list through the Labels interface.
type labelList []Label

func (l labelList) Entries() int        { return len(l) }
func (l labelList) LabelAt(i int) Label { return l[i] }
func (l labelList) SeekStart(s int32) int {
	return sort.Search(len(l), func(i int) bool { return l[i].Start >= s })
}

// TestLinkerAgreesWithFill holds the single-record pointer definitions to
// the whole-list passes of Materialize: on random documents, with small
// vocabularies so that types nest in themselves, every record's pointers
// computed one at a time equal the materialized ones.
func TestLinkerAgreesWithFill(t *testing.T) {
	labels := []string{"a", "b", "c", "d"}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := testutil.RandomDocShaped(rng, testutil.DocShape{MaxNodes: 80, MaxDepth: 4 + rng.Intn(8)}, labels)
		v := testutil.RandomPattern(rng, 4, labels)
		m := MustMaterialize(d, v)
		k := NewLinker(d, v)
		for q := range m.Lists {
			k.Lists[q] = labelList(m.Lists[q].Labels)
		}
		for q := range m.Lists {
			l := &m.Lists[q]
			for i := range l.Labels {
				f, desc, ch := k.Pointers(q, i)
				want := make([]int32, len(l.Children))
				for c := range want {
					want[c] = l.Children[c][i]
				}
				if f != l.Following[i] || desc != l.Descendant[i] || !slices.Equal(ch, want) {
					t.Fatalf("seed %d view %s list %d record %d: linker (%d, %d, %v), materialized (%d, %d, %v)",
						seed, v, q, i, f, desc, ch, l.Following[i], l.Descendant[i], want)
				}
			}
		}
	}
}

// TestSolutionListsRegion checks the scoped derivation against the whole
// one: for every subtree of a random document, the region's lists — given
// as context which of the subtree root's ancestors are members — are
// exactly the whole document's lists restricted to the subtree.
func TestSolutionListsRegion(t *testing.T) {
	labels := []string{"a", "b", "c"}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := testutil.RandomDocShaped(rng, testutil.DocShape{MaxNodes: 40}, labels)
		v := testutil.RandomPattern(rng, 3, labels)
		whole := SolutionLists(d, v, Region{Hi: xmltree.NodeID(d.NumNodes())})
		for root := xmltree.NodeID(1); int(root) < d.NumNodes(); root++ {
			r := Region{Lo: root, Hi: root + xmltree.NodeID(d.SubtreeSize(root)),
				Above: make([]bool, v.Size()), Parent: make([]bool, v.Size())}
			for c := d.Node(root).Parent; c != xmltree.NoNode; c = d.Node(c).Parent {
				for q := range whole {
					if slices.Contains(whole[q], label(d, c)) {
						r.Above[q] = true
						r.Parent[q] = r.Parent[q] || c == d.Node(root).Parent
					}
				}
			}
			got := SolutionLists(d, v, r)
			for q := range whole {
				var want []Label
				for _, l := range whole[q] {
					if id := d.FindByStart(l.Start); id >= r.Lo && id < r.Hi {
						want = append(want, l)
					}
				}
				if !slices.Equal(got[q], want) {
					t.Fatalf("seed %d view %s subtree %d list %d: region %v, whole document restricted %v",
						seed, v, root, q, got[q], want)
				}
			}
		}
	}
}
