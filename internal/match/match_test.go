package match

import (
	"testing"
	"unsafe"

	"viewjoin/internal/xmltree"
)

// TestCellIsTwelveBytes pins the result cell to its three labels: a field
// added to Cell is a field added to every binding of every result.
func TestCellIsTwelveBytes(t *testing.T) {
	if n := unsafe.Sizeof(Cell{}); n != 12 {
		t.Fatalf("a Cell is %d bytes, want 12", n)
	}
}

func m(ids ...xmltree.NodeID) Match { return Match(ids) }

func TestLessAndEqual(t *testing.T) {
	if !Less(m(1, 2), m(1, 3)) || Less(m(1, 3), m(1, 2)) {
		t.Errorf("Less wrong on last component")
	}
	if !Less(m(1, 2), m(2, 0)) {
		t.Errorf("Less wrong on first component")
	}
	if Less(m(1, 2), m(1, 2)) {
		t.Errorf("Less must be strict")
	}
	if !Less(m(1), m(1, 2)) || Less(m(1, 2), m(1)) {
		t.Errorf("Less wrong on prefix")
	}
	if !Equal(m(1, 2), m(1, 2)) || Equal(m(1, 2), m(1, 3)) || Equal(m(1), m(1, 2)) {
		t.Errorf("Equal wrong")
	}
}

func TestClone(t *testing.T) {
	a := m(1, 2, 3)
	b := Clone(a)
	b[0] = 99
	if a[0] != 1 {
		t.Errorf("Clone aliases source")
	}
}

func TestNormalize(t *testing.T) {
	s := Set{m(2, 1), m(1, 1), m(2, 1), m(1, 1)}
	n := s.Normalize()
	if len(n) != 2 || !Equal(n[0], m(1, 1)) || !Equal(n[1], m(2, 1)) {
		t.Fatalf("Normalize = %v", n)
	}
	var empty Set
	if got := empty.Normalize(); len(got) != 0 {
		t.Errorf("Normalize(empty) = %v", got)
	}
}

func TestSameAs(t *testing.T) {
	a := Set{m(1, 2), m(3, 4)}
	b := Set{m(3, 4), m(1, 2), m(1, 2)}
	if !a.SameAs(b) {
		t.Errorf("SameAs must ignore order and duplicates")
	}
	c := Set{m(3, 4), m(1, 2)}
	if !a.SameAs(c) {
		t.Errorf("SameAs must ignore order")
	}
	if a.SameAs(Set{m(1, 2)}) {
		t.Errorf("different sizes must differ")
	}
	if a.SameAs(Set{m(1, 2), m(3, 5)}) {
		t.Errorf("different content must differ")
	}
}

func TestSolutionNodes(t *testing.T) {
	s := Set{m(1, 5), m(1, 6), m(2, 5)}
	sol := s.SolutionNodes(2)
	if len(sol) != 2 {
		t.Fatalf("len = %d", len(sol))
	}
	if len(sol[0]) != 2 || sol[0][0] != 1 || sol[0][1] != 2 {
		t.Errorf("sol[0] = %v", sol[0])
	}
	if len(sol[1]) != 2 || sol[1][0] != 5 || sol[1][1] != 6 {
		t.Errorf("sol[1] = %v", sol[1])
	}
}
