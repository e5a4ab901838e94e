// Package match defines the common result representations of this
// repository.
//
// Per the paper's query model (§II), every node of a TPQ is an output node,
// so the answer to a query Q is the set of tree pattern instances: one data
// node per query node for each embedding of Q into the document. The
// evaluation engines produce label-native rows of Cells, written straight
// from the region labels their stores hold; the oracle and the tuple-scheme
// view content keep node-id Matches.
package match

import (
	"fmt"
	"sort"

	"viewjoin/internal/xmltree"
)

// Cell is a region label: one binding of a result row, and the label type
// the views and their stores hold (views.Label), so an engine writes a
// binding by copying the label it read. Column k of every row binds query
// node k, so a binding's tag is that node's label and is not repeated per
// cell: a Cell is 12 bytes with no pointer, and a chunk of them is memory
// the garbage collector never scans.
type Cell struct {
	Start int32
	End   int32
	Level int32
}

// Contains reports whether m is strictly inside c.
func (c Cell) Contains(m Cell) bool { return c.Start < m.Start && m.End < c.End }

// RowLess orders result rows lexicographically by start label, i.e. by
// document order of the bound nodes, query node by query node — the same
// order Less gives the corresponding node-id matches.
func RowLess(a, b []Cell) bool {
	for i := range a {
		if a[i].Start != b[i].Start {
			return a[i].Start < b[i].Start
		}
	}
	return false
}

// FromRows resolves label-native rows of a width-column result over d back
// to node-id matches.
func FromRows(d *xmltree.Document, rows [][]Cell, width int) (Set, error) {
	ms := make(Set, len(rows))
	ids := make(Match, len(rows)*width)
	for i, row := range rows {
		if len(row) != width {
			return nil, fmt.Errorf("result row %d binds %d nodes for a %d-node query", i, len(row), width)
		}
		m := ids[i*width : (i+1)*width : (i+1)*width]
		for j, c := range row {
			if m[j] = d.FindByStart(c.Start); m[j] == xmltree.NoNode {
				return nil, fmt.Errorf("result row %d references start %d not in this document", i, c.Start)
			}
		}
		ms[i] = m
	}
	return ms, nil
}

// Match is one tree pattern instance: Match[i] is the data node matched by
// query node i (indices follow tpq.Pattern node order).
type Match []xmltree.NodeID

// Less orders matches lexicographically by node id (i.e. by document order
// of the matched nodes, query node by query node).
func Less(a, b Match) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// Equal reports whether two matches bind identical nodes.
func Equal(a, b Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of m.
func Clone(m Match) Match {
	out := make(Match, len(m))
	copy(out, m)
	return out
}

// Set is a collection of matches.
type Set []Match

// Sort orders the set lexicographically.
func (s Set) Sort() {
	sort.Slice(s, func(i, j int) bool { return Less(s[i], s[j]) })
}

// Normalize sorts the set and removes duplicate matches, returning the
// result. Useful for comparing engine outputs in tests.
func (s Set) Normalize() Set {
	if len(s) == 0 {
		return s
	}
	s.Sort()
	out := s[:1]
	for _, m := range s[1:] {
		if !Equal(out[len(out)-1], m) {
			out = append(out, m)
		}
	}
	return out
}

// SameAs reports whether two normalized-or-not sets contain the same
// matches (order- and duplicate-insensitive).
func (s Set) SameAs(t Set) bool {
	a := append(Set(nil), s...).Normalize()
	b := append(Set(nil), t...).Normalize()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// SolutionNodes returns, for each query node index, the distinct data nodes
// bound to it across all matches, in document order. This is the "solution
// node" notion of §II, and what the element/LE storage schemes materialize.
func (s Set) SolutionNodes(numQueryNodes int) [][]xmltree.NodeID {
	seen := make([]map[xmltree.NodeID]bool, numQueryNodes)
	for i := range seen {
		seen[i] = make(map[xmltree.NodeID]bool)
	}
	for _, m := range s {
		for q, n := range m {
			seen[q][n] = true
		}
	}
	out := make([][]xmltree.NodeID, numQueryNodes)
	for q := range out {
		ids := make([]xmltree.NodeID, 0, len(seen[q]))
		for id := range seen[q] {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		out[q] = ids
	}
	return out
}
