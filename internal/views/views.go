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

// NoPointer marks an absent (null) pointer in materialized entries.
const NoPointer int32 = -1

// Entry is one solution node in a materialized view list, together with the
// DAG pointers of the linked-element scheme. Pointer values are positions
// (indices) within the target list; the storage layer maps positions to
// (page, offset) pairs.
type Entry struct {
	Node  xmltree.NodeID // the data node (its id doubles as a record id)
	Start int32
	End   int32
	Level int32

	// Following is the position in this same list of the first following
	// q-type node sharing the same lowest parent-type ancestor (§III-A
	// pointer 3), or NoPointer.
	Following int32
	// Descendant is the position in this same list of the first q-type
	// descendant (§III-A pointer 2), or NoPointer.
	Descendant int32
	// Children holds one pointer per child of this view node in the view
	// pattern, in tpq child order: the position in the child's list of the
	// first matching child/descendant (§III-A pointer 1), or NoPointer.
	Children []int32
}

// Materialized is a fully materialized view: one list of entries per view
// node, in document order, plus the matches for the tuple scheme (computed
// lazily).
type Materialized struct {
	View  *tpq.Pattern
	Doc   *xmltree.Document
	Lists [][]Entry // indexed by view node, then by list position

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

// fromSolutions builds the view of v from its solution lists (node ids per
// view node, in document order): one entry per solution node, its
// pointers filled from the lists themselves. A list's child pointers are
// one array, each entry's Children a window of it.
func fromSolutions(d *xmltree.Document, v *tpq.Pattern, sol [][]xmltree.NodeID) *Materialized {
	m := &Materialized{View: v, Doc: d, Lists: make([][]Entry, v.Size())}
	for q := range sol {
		list := make([]Entry, len(sol[q]))
		nc := len(v.Nodes[q].Children)
		kids := make([]int32, nc*len(list))
		for k := range kids {
			kids[k] = NoPointer
		}
		for i, id := range sol[q] {
			n := d.Node(id)
			list[i] = Entry{
				Node:       id,
				Start:      n.Start,
				End:        n.End,
				Level:      n.Level,
				Following:  NoPointer,
				Descendant: NoPointer,
			}
			if nc > 0 {
				list[i].Children = kids[i*nc : (i+1)*nc : (i+1)*nc]
			}
		}
		m.Lists[q] = list
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
		out[i] = len(m.Lists[i])
	}
	return out
}

// TotalEntries returns the total number of entries across all lists.
func (m *Materialized) TotalEntries() int {
	n := 0
	for i := range m.Lists {
		n += len(m.Lists[i])
	}
	return n
}

// NumPointers returns the number of non-null materialized pointers, the
// quantity reported in the paper's Table IV.
func (m *Materialized) NumPointers() int {
	n := 0
	for _, list := range m.Lists {
		for i := range list {
			if list[i].Following != NoPointer {
				n++
			}
			if list[i].Descendant != NoPointer {
				n++
			}
			for _, c := range list[i].Children {
				if c != NoPointer {
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
// lists are exactly the candidate space).
func (m *Materialized) enumerateMatches() match.Set {
	var out match.Set
	cur := make(match.Match, m.View.Size())
	var rec func(qi int)
	rec = func(qi int) {
		if qi == m.View.Size() {
			out = append(out, match.Clone(cur))
			return
		}
		qn := m.View.Nodes[qi]
		parent := m.Doc.Node(cur[qn.Parent])
		list := m.Lists[qi]
		lo := sort.Search(len(list), func(k int) bool { return list[k].Start > parent.Start })
		for i := lo; i < len(list) && list[i].Start < parent.End; i++ {
			if qn.Axis == tpq.Child && list[i].Level != parent.Level+1 {
				continue
			}
			cur[qi] = list[i].Node
			rec(qi + 1)
		}
	}
	for _, e := range m.Lists[0] {
		cur[0] = e.Node
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

// scanDown yields the region's nodes of a view type, last first, by walking
// the node array — the right cost for a region: no index to build.
func scanDown(nodes []xmltree.Node, qOf []int, r Region) func() xmltree.NodeID {
	id := r.Hi
	return func() xmltree.NodeID {
		for id--; id >= r.Lo; id-- {
			if qOf[nodes[id-r.Lo].Type] >= 0 {
				return id
			}
		}
		return xmltree.NoNode
	}
}

// mergeDown yields the same for the whole document by merging the type
// index's lists from their ends: it visits only the candidates, and the
// index is built once per document however many views are materialized.
func mergeDown(d *xmltree.Document, typeOf []xmltree.TypeID) func() xmltree.NodeID {
	lists := make([][]xmltree.NodeID, len(typeOf))
	for q, t := range typeOf {
		lists[q] = d.NodesOfType(t)
	}
	return func() xmltree.NodeID {
		last := -1
		for q, l := range lists {
			if len(l) > 0 && (last < 0 || l[len(l)-1] > lists[last][len(lists[last])-1]) {
				last = q
			}
		}
		if last < 0 {
			return xmltree.NoNode
		}
		l := lists[last]
		lists[last] = l[:len(l)-1]
		return l[len(l)-1]
	}
}

// SolutionLists computes, for each view node q, the region's data nodes of
// q's type that participate in at least one match of v, in document order.
// It is the one membership routine of the system: Materialize runs it over
// the whole document, incremental maintenance over the subtree a document
// update can have changed. A downward qualification pass (does the node's
// subtree match q's subtree — decided inside the region, since a subtree
// never leaves it) runs over the region's nodes in reverse document order;
// an upward pass (is there a qualifying chain of ancestors up to the view
// root) then filters each list against its parent's, seeded by the context.
func SolutionLists(d *xmltree.Document, v *tpq.Pattern, r Region) [][]xmltree.NodeID {
	nq := v.Size()
	typeOf, qOf := typeIndex(d, v)
	// nodes holds the region only, so node id is nodes[id-r.Lo]: a region of
	// an updated document is read out of its piece table, not the table
	// written out. Every id looked up below lies in the region.
	whole := r.Lo == 0 && int(r.Hi) == d.NumNodes()
	var nodes []xmltree.Node
	if whole {
		nodes = d.Nodes()
	} else {
		nodes = d.Range(r.Lo, r.Hi)
	}

	// Downward pass. Descendants follow their ancestors in document order,
	// so a reverse sweep sees every subtree before its root. nearest[c] is
	// the most recently qualified c-node: the one with the smallest id, so
	// the only candidate for "first c-descendant" of the node at hand.
	// awaiting[c] stacks the parents of qualified pc-children c that the
	// sweep has not reached yet; they are nested, deepest on top.
	down := make([][]xmltree.NodeID, nq)
	nearest := make([]xmltree.NodeID, nq)
	for q := range nearest {
		nearest[q] = xmltree.NoNode
	}
	awaiting := make([][]xmltree.NodeID, nq)
	next := scanDown(nodes, qOf, r)
	if whole {
		next = mergeDown(d, typeOf)
	}
	for id := next(); id != xmltree.NoNode; id = next() {
		n := &nodes[id-r.Lo]
		q := qOf[n.Type]
		// A "/a" root matches the document root only. A rejected candidate
		// still runs the loop below: it must take itself off awaiting[].
		ok := q > 0 || v.Nodes[0].Axis == tpq.Descendant || id == d.Root()
		for _, c := range v.Nodes[q].Children {
			if v.Nodes[c].Axis == tpq.Descendant {
				ok = ok && nearest[c] != xmltree.NoNode && nodes[nearest[c]-r.Lo].Start < n.End
			} else if w := awaiting[c]; len(w) > 0 && w[len(w)-1] == id {
				awaiting[c] = w[:len(w)-1]
			} else {
				ok = false
			}
		}
		if !ok {
			continue
		}
		down[q] = append(down[q], id)
		nearest[q] = id
		if q > 0 && v.Nodes[q].Axis == tpq.Child && n.Parent >= r.Lo &&
			nodes[n.Parent-r.Lo].Type == typeOf[v.Nodes[q].Parent] {
			if w := awaiting[q]; len(w) == 0 || w[len(w)-1] != n.Parent {
				awaiting[q] = append(w, n.Parent)
			}
		}
	}
	for _, l := range down {
		for i, j := 0, len(l)-1; i < j; i, j = i+1, j-1 {
			l[i], l[j] = l[j], l[i]
		}
	}

	// Upward pass, view nodes in pre-order so a parent's list is final
	// before its children filter against it. member marks the region nodes
	// kept so far; a node's type names the only list it can be in. Only
	// pc-edges look a parent up in it.
	var member []bool
	if slices.ContainsFunc(v.Nodes[1:], func(n tpq.Node) bool { return n.Axis == tpq.Child }) {
		member = make([]bool, r.Hi-r.Lo)
	}
	sol := down
	for q := range sol {
		p := v.Nodes[q].Parent
		keep := sol[q][:0]
		switch {
		case p < 0 || (v.Nodes[q].Axis == tpq.Descendant && r.Above != nil && r.Above[p]):
			keep = sol[q]
		case v.Nodes[q].Axis == tpq.Descendant:
			// Regions nest, so a p-node that starts before n contains it
			// exactly when it ends after n starts.
			pi, open := 0, int32(-1)
			for _, id := range sol[q] {
				for ; pi < len(sol[p]) && sol[p][pi] < id; pi++ {
					open = max(open, nodes[sol[p][pi]-r.Lo].End)
				}
				if open > nodes[id-r.Lo].Start {
					keep = append(keep, id)
				}
			}
		default:
			for _, id := range sol[q] {
				par := nodes[id-r.Lo].Parent
				if par >= r.Lo && member[par-r.Lo] && nodes[par-r.Lo].Type == typeOf[p] ||
					par < r.Lo && r.Parent != nil && r.Parent[p] {
					keep = append(keep, id)
				}
			}
		}
		sol[q] = keep
		if member != nil {
			for _, id := range keep {
				member[id-r.Lo] = true
			}
		}
	}
	return sol
}
