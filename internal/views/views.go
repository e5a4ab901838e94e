// Package views materializes tree pattern views over XML documents: it
// computes T_v, the materialized result of a view pattern v on a document T
// (§III of the paper), in the three representations the storage schemes
// need:
//
//   - per-view-node solution lists in document order (element and
//     linked-element schemes),
//   - the full set of matches as tuples (tuple scheme), and
//   - the child / descendant / following pointers of the conceptual DAG
//     structure (§III-A) for the linked-element schemes.
package views

import (
	"fmt"
	"slices"
	"sort"

	"viewjoin/internal/match"
	"viewjoin/internal/tpq"
	"viewjoin/internal/xmltree"
)

// NoPointer marks an absent (null) pointer in materialized lists.
const NoPointer int32 = -1

// List is one view node's materialized list, in document order, as
// columns: the solution nodes' region labels and the DAG pointers of the
// linked-element scheme. Pointer values are positions (indices) within
// the target list, NoPointer for none; the storage layer maps positions
// to (page, offset) pairs.
type List struct {
	Labels []Label

	// Following[i] is the position in this same list of the first
	// following q-type node sharing entry i's lowest parent-type ancestor
	// (§III-A pointer 3).
	Following []int32
	// Descendant[i] is the position in this same list of entry i's first
	// q-type descendant (§III-A pointer 2).
	Descendant []int32
	// Children holds one column per child of this view node in the view
	// pattern, in tpq child order: Children[c][i] is the position in the
	// child's list of entry i's first matching child/descendant (§III-A
	// pointer 1).
	Children [][]int32
}

// Materialized is a fully materialized view: one list per view node, in
// document order, plus the matches for the tuple scheme (computed
// lazily).
type Materialized struct {
	View  *tpq.Pattern
	Doc   *xmltree.Document
	Lists []List // indexed by view node

	matches match.Set // lazily computed tuple-scheme content
	hasM    bool
}

// Materialize computes T_v for view v over document d: solution lists with
// all LE pointers populated.
func Materialize(d *xmltree.Document, v *tpq.Pattern) (*Materialized, error) {
	if err := v.Validate(); err != nil {
		return nil, fmt.Errorf("views: %w", err)
	}
	return fromSolutions(d, v, SolutionLists(d, v, Region{Hi: xmltree.NodeID(d.NumNodes())})), nil
}

// fromSolutions builds the view of v from its solution lists (labels per
// view node, in document order), its pointers filled from the lists
// themselves. A list's pointer columns are one array.
func fromSolutions(d *xmltree.Document, v *tpq.Pattern, sol [][]Label) *Materialized {
	m := &Materialized{View: v, Doc: d, Lists: make([]List, v.Size())}
	for q, labels := range sol {
		n, nc := len(labels), len(v.Nodes[q].Children)
		cols := make([]int32, (2+nc)*n)
		for k := range cols {
			cols[k] = NoPointer
		}
		l := &m.Lists[q]
		l.Labels = labels
		l.Following, l.Descendant = cols[:n:n], cols[n:2*n:2*n]
		if nc > 0 {
			l.Children = make([][]int32, nc)
			for c := range l.Children {
				l.Children[c] = cols[(2+c)*n : (3+c)*n : (3+c)*n]
			}
		}
	}
	m.fillDescendantPointers()
	m.fillFollowingPointers()
	m.fillChildPointers()
	return m
}

// MustMaterialize is Materialize but panics on error.
func MustMaterialize(d *xmltree.Document, v *tpq.Pattern) *Materialized {
	m, err := Materialize(d, v)
	if err != nil {
		panic(err)
	}
	return m
}

// ListSizes returns |L_q| for each view node q — the quantity the cost
// model of §V is built on.
func (m *Materialized) ListSizes() []int {
	out := make([]int, len(m.Lists))
	for i := range m.Lists {
		out[i] = len(m.Lists[i].Labels)
	}
	return out
}

// TotalEntries returns the total number of entries across all lists.
func (m *Materialized) TotalEntries() int {
	n := 0
	for i := range m.Lists {
		n += len(m.Lists[i].Labels)
	}
	return n
}

// NumPointers returns the number of non-null materialized pointers, the
// quantity reported in the paper's Table IV.
func (m *Materialized) NumPointers() int {
	n := 0
	for i := range m.Lists {
		l := &m.Lists[i]
		for _, col := range append([][]int32{l.Following, l.Descendant}, l.Children...) {
			for _, p := range col {
				if p != NoPointer {
					n++
				}
			}
		}
	}
	return n
}

// Matches returns the tuple-scheme content of the view: every match of v on
// d, sorted by the composite key (start of node 1, start of node 2, ...) as
// in InterJoin's storage (§I). The result is computed once and cached.
func (m *Materialized) Matches() match.Set {
	if m.hasM {
		return m.matches
	}
	m.matches = m.enumerateMatches()
	m.hasM = true
	return m.matches
}

// enumerateMatches enumerates embeddings restricted to the solution lists
// (every node of a solution list participates in at least one match, so the
// lists are exactly the candidate space). The lists hold labels; a match
// names nodes, found once per entry by start.
func (m *Materialized) enumerateMatches() match.Set {
	ids := make([][]xmltree.NodeID, len(m.Lists))
	for q := range m.Lists {
		ids[q] = make([]xmltree.NodeID, len(m.Lists[q].Labels))
		for i, l := range m.Lists[q].Labels {
			ids[q][i] = m.Doc.FindByStart(l.Start)
		}
	}
	var out match.Set
	cur := make(match.Match, m.View.Size())
	at := make([]int, m.View.Size()) // the list position cur binds
	var rec func(qi int)
	rec = func(qi int) {
		if qi == m.View.Size() {
			out = append(out, match.Clone(cur))
			return
		}
		qn := m.View.Nodes[qi]
		parent := m.Lists[qn.Parent].Labels[at[qn.Parent]]
		list := m.Lists[qi].Labels
		lo := sort.Search(len(list), func(k int) bool { return list[k].Start > parent.Start })
		for i := lo; i < len(list) && list[i].Start < parent.End; i++ {
			if qn.Axis == tpq.Child && list[i].Level != parent.Level+1 {
				continue
			}
			cur[qi], at[qi] = ids[qi][i], i
			rec(qi + 1)
		}
	}
	for i, id := range ids[0] {
		cur[0], at[0] = id, i
		rec(1)
	}
	// Pattern node order is pre-order, and list entries are visited in
	// document order, so the output is already sorted by composite start key
	// per the tuple scheme; no extra sort needed.
	return out
}

// Region scopes SolutionLists to one subtree of the document: the nodes
// [Lo, Hi) in document order (a subtree's nodes are contiguous), plus what
// the derivation needs to know about the nodes above it. Every ancestor of
// a region node that lies outside the region is an ancestor of the region
// root, so the upward context is one flag pair per view node. The zero
// context with [0, NumNodes) is the whole document.
type Region struct {
	Lo, Hi xmltree.NodeID
	// Above[q] reports that some ancestor of the region root is in view node
	// q's solution list; Parent[q] that the root's parent is. nil = none.
	Above, Parent []bool
}

// SolutionLists computes, for each view node q, the labels of the
// region's data nodes of q's type that participate in at least one match
// of v, in document order. It is the one membership routine of the
// system: Materialize runs it over the whole document, incremental
// maintenance over the subtree a document update can have changed. Each
// candidate node is read once, for its label; everything after works on
// the label lists. A downward qualification pass (does the node's subtree
// match q's subtree — decided inside the region, since a subtree never
// leaves it) filters the lists children first; an upward pass (is there a
// qualifying chain of ancestors up to the view root) then filters each
// list against its parent's, seeded by the context. Regions nest, so
// every test is a merge of two lists in document order.
func SolutionLists(d *xmltree.Document, v *tpq.Pattern, r Region) [][]Label {
	nq := v.Size()
	typeOf, qOf := typeIndex(d, v)
	sol := make([][]Label, nq)
	if r.Lo == 0 && int(r.Hi) == d.NumNodes() {
		// The type index is built once per document however many views
		// are materialized; its ids ascend, so the reads do too.
		nodes := d.Nodes()
		for q, t := range typeOf {
			ids := d.NodesOfType(t)
			l := make([]Label, len(ids))
			for i, id := range ids {
				n := &nodes[id]
				l[i] = Label{Start: n.Start, End: n.End, Level: n.Level}
			}
			sol[q] = l
		}
	} else {
		// A region is read out of the document's piece table, not the
		// table written out: one walk, no index to build.
		for _, n := range d.Range(r.Lo, r.Hi) {
			if q := qOf[n.Type]; q >= 0 {
				sol[q] = append(sol[q], Label{Start: n.Start, End: n.End, Level: n.Level})
			}
		}
	}
	if v.Nodes[0].Axis == tpq.Child { // "/a" matches the document root only
		root := d.Node(d.Root()).Start
		sol[0] = slices.DeleteFunc(sol[0], func(x Label) bool { return x.Start != root })
	}

	// Downward pass, children before parents (pre-order reversed): a node
	// stays when its subtree holds a kept node of every pattern child, a
	// direct child on a pc-edge.
	for q := nq - 1; q >= 0; q-- {
		for _, c := range v.Nodes[q].Children {
			l, cl := sol[q], sol[c]
			keep := l[:0]
			if v.Nodes[c].Axis == tpq.Descendant {
				// The first c-node starting after x lies inside x when any
				// does.
				j := 0
				for _, x := range l {
					for j < len(cl) && cl[j].Start <= x.Start {
						j++
					}
					if j < len(cl) && cl[j].Start < x.End {
						keep = append(keep, x)
					}
				}
			} else {
				has := make([]bool, len(l))
				for j, a := range lowestAncestorIn(l, cl) {
					if a >= 0 && l[a].Level == cl[j].Level-1 {
						has[a] = true
					}
				}
				for i, x := range l {
					if has[i] {
						keep = append(keep, x)
					}
				}
			}
			sol[q] = keep
		}
	}

	// Upward pass, view nodes in pre-order so a parent's list is final
	// before its children filter against it.
	for q := 1; q < nq; q++ {
		p := v.Nodes[q].Parent
		l, pl := sol[q], sol[p]
		keep := l[:0]
		switch {
		case v.Nodes[q].Axis == tpq.Descendant && r.Above != nil && r.Above[p]:
			continue
		case v.Nodes[q].Axis == tpq.Descendant:
			// A p-node that starts before x contains it exactly when it
			// ends after x starts.
			pi, open := 0, int32(-1)
			for _, x := range l {
				for ; pi < len(pl) && pl[pi].Start < x.Start; pi++ {
					open = max(open, pl[pi].End)
				}
				if open > x.Start {
					keep = append(keep, x)
				}
			}
		default:
			// x's parent is its nearest ancestor, so it is in p's list
			// exactly when x's lowest ancestor there is one level up. The
			// region root's parent lies outside, and the context tells.
			for j, a := range lowestAncestorIn(pl, l) {
				x := l[j]
				if a >= 0 && pl[a].Level == x.Level-1 ||
					r.Parent != nil && r.Parent[p] && x.Start == d.Node(r.Lo).Start {
					keep = append(keep, x)
				}
			}
		}
		sol[q] = keep
	}
	return sol
}
