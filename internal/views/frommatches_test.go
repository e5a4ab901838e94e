package views

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"viewjoin/internal/match"
	"viewjoin/internal/oracle"
	"viewjoin/internal/testutil"
	"viewjoin/internal/tpq"
	"viewjoin/internal/xmltree"
)

// TestFromMatchesEqualsMaterialize: building a view from a complete match
// set must reproduce exactly what direct materialization computes — lists,
// pointers, and tuple content.
func TestFromMatchesEqualsMaterialize(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := testutil.RandomDoc(rng, 80, nil)
		p := testutil.RandomPattern(rng, 4, nil)
		want, err := Materialize(d, p)
		if err != nil {
			return false
		}
		got, err := FromMatches(d, p, oracle.Eval(d, p))
		if err != nil {
			t.Logf("FromMatches: %v", err)
			return false
		}
		if len(got.Lists) != len(want.Lists) {
			return false
		}
		for q := range want.Lists {
			a, b := &got.Lists[q], &want.Lists[q]
			if !slices.Equal(a.Labels, b.Labels) || !slices.Equal(a.Following, b.Following) ||
				!slices.Equal(a.Descendant, b.Descendant) || len(a.Children) != len(b.Children) {
				t.Logf("list %d differs: %+v vs %+v", q, *a, *b)
				return false
			}
			for c := range b.Children {
				if !slices.Equal(a.Children[c], b.Children[c]) {
					return false
				}
			}
		}
		if !got.Matches().SameAs(want.Matches()) {
			t.Logf("tuple content differs")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFromMatchesErrors(t *testing.T) {
	d, err := xmltree.ParseString(`<r><a/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	p := tpq.MustParse("//a//b")
	if _, err := FromMatches(d, p, match.Set{match.Match{0}}); err == nil {
		t.Errorf("arity mismatch: expected error")
	}
	bad := &tpq.Pattern{Nodes: []tpq.Node{{Label: "a", Parent: -1}, {Label: "a", Parent: 0}}}
	bad.Nodes[0].Children = []int{1}
	if _, err := FromMatches(d, bad, nil); err == nil {
		t.Errorf("invalid pattern: expected error")
	}
}

func TestFromMatchesEmpty(t *testing.T) {
	d, err := xmltree.ParseString(`<r><a/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	p := tpq.MustParse("//a//b")
	m, err := FromMatches(d, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalEntries() != 0 || len(m.Matches()) != 0 {
		t.Errorf("empty match set must give an empty view")
	}
}
