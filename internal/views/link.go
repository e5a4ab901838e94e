package views

import (
	"viewjoin/internal/match"
	"viewjoin/internal/tpq"
	"viewjoin/internal/xmltree"
)

// Label is a region label triple: the result cell type, so a label read
// from a list is a binding as it stands.
type Label = match.Cell

// Labels is a materialized list as the single-record pointer definitions
// read it: region labels in document order, searchable by start.
type Labels interface {
	Entries() int
	LabelAt(i int) Label
	// SeekStart returns the position of the first label with start >= s.
	SeekStart(s int32) int
}

// IndexOf returns the position of the label with the given start in l, or
// -1.
func IndexOf(l Labels, start int32) int {
	if i := l.SeekStart(start); i < l.Entries() && l.LabelAt(i).Start == start {
		return i
	}
	return -1
}

// typeIndex resolves a view's labels against a document: typeOf maps a view
// node to its element type, nodeOf a type back to its view node or -1 (view
// labels are unique, so a type names at most one node).
func typeIndex(d *xmltree.Document, v *tpq.Pattern) (typeOf []xmltree.TypeID, nodeOf []int) {
	typeOf = make([]xmltree.TypeID, v.Size())
	nodeOf = make([]int, d.NumTypes())
	for t := range nodeOf {
		nodeOf[t] = -1
	}
	for q := range v.Nodes {
		if typeOf[q] = d.TypeByName(v.Nodes[q].Label); typeOf[q] != xmltree.NoType {
			nodeOf[typeOf[q]] = q
		}
	}
	return typeOf, nodeOf
}

// Linker evaluates the pointer definitions of §III-A for single records of
// a view's lists, against the lists and the document they reflect. The
// fill*Pointers passes of Materialize compute the same pointers for whole
// lists at once; incremental maintenance needs them for the few records a
// document update can reach. Both stay: asked for every record of a list
// the Linker costs 2-7x the linear passes (XMark scale 0.25: 0.74 vs 0.33
// ms for //item//text//keyword, +58% on Materialize), and
// TestLinkerAgreesWithFill holds the two to each other on random input.
type Linker struct {
	Doc   *xmltree.Document
	View  *tpq.Pattern
	Lists []Labels // one per view node

	typeOf []xmltree.TypeID
	nodeOf []int
}

// NewLinker binds the definitions to a view's lists over d. Lists may be
// filled in after the call, before the first pointer is asked for.
func NewLinker(d *xmltree.Document, v *tpq.Pattern) *Linker {
	k := &Linker{Doc: d, View: v, Lists: make([]Labels, v.Size())}
	k.typeOf, k.nodeOf = typeIndex(d, v)
	return k
}

// NodeOf returns the view node whose label is n's tag, or -1.
func (k *Linker) NodeOf(n xmltree.Node) int { return k.nodeOf[n.Type] }

// ListAncestors calls fn for the proper ancestors of id strictly below stop
// (NoNode: up to the root) that are records of list q, nearest first, with
// their position in the list, until fn returns false.
func (k *Linker) ListAncestors(q int, id, stop xmltree.NodeID, fn func(id xmltree.NodeID, pos int) bool) {
	for c := k.Doc.Node(id).Parent; c != stop && c != xmltree.NoNode; c = k.Doc.Node(c).Parent {
		if n := k.Doc.Node(c); n.Type == k.typeOf[q] {
			if i := IndexOf(k.Lists[q], n.Start); i >= 0 && !fn(c, i) {
				return
			}
		}
	}
}

// GroupBelow returns the outermost group nested in g that a record of list
// q at node id falls into: its topmost proper ancestor strictly below g
// (NoNode: below nothing) in the parent's list. NoNode means the record's
// group — its lowest ancestor in the parent's list, the scope of its
// following pointer — is g itself; the view root's list is one group.
func (k *Linker) GroupBelow(q int, id, g xmltree.NodeID) xmltree.NodeID {
	top := xmltree.NoNode
	if p := k.View.Nodes[q].Parent; p >= 0 {
		k.ListAncestors(p, id, g, func(c xmltree.NodeID, _ int) bool { top = c; return true })
	}
	return top
}

// Pointers returns the pointers of record i of list q: positions in the
// target lists, NoPointer for none, one child pointer per pattern child.
func (k *Linker) Pointers(q, i int) (following, descendant int32, children []int32) {
	l := k.Lists[q]
	e := l.LabelAt(i)
	descendant = NoPointer
	if i+1 < l.Entries() && l.LabelAt(i+1).Start < e.End {
		descendant = int32(i + 1)
	}
	children = make([]int32, len(k.View.Nodes[q].Children))
	for ci, c := range k.View.Nodes[q].Children {
		children[ci] = k.firstPartner(e, c)
	}
	return k.following(q, e), descendant, children
}

// following returns the first record of list q that follows e within e's
// group.
func (k *Linker) following(q int, e Label) int32 {
	l := k.Lists[q]
	g, groupEnd := xmltree.NoNode, int32(0)
	scoped := k.View.Nodes[q].Parent >= 0
	if scoped { // e's group: its lowest ancestor in the parent's list
		k.ListAncestors(k.View.Nodes[q].Parent, k.Doc.FindByStart(e.Start), xmltree.NoNode, func(c xmltree.NodeID, _ int) bool {
			g, groupEnd = c, k.Doc.Node(c).End
			return false
		})
	}
	for pos := e.End; ; {
		j := l.SeekStart(pos + 1)
		if j >= l.Entries() || scoped && l.LabelAt(j).Start > groupEnd {
			return NoPointer
		}
		top := k.GroupBelow(q, k.Doc.FindByStart(l.LabelAt(j).Start), g)
		if top == xmltree.NoNode {
			return int32(j)
		}
		pos = k.Doc.Node(top).End // j's group is nested in g: step over it
	}
}

// firstPartner returns the first record of pattern child c's list under e:
// the first descendant for an ad-edge, the first direct child for a
// pc-edge.
func (k *Linker) firstPartner(e Label, c int) int32 {
	l := k.Lists[c]
	for j := l.SeekStart(e.Start + 1); j < l.Entries(); {
		y := l.LabelAt(j)
		if y.Start > e.End {
			break
		}
		if k.View.Nodes[c].Axis == tpq.Descendant || y.Level == e.Level+1 {
			return int32(j)
		}
		// y sits deeper, under some other child of e: step over that child.
		id := k.Doc.FindByStart(y.Start)
		for k.Doc.Node(id).Level > e.Level+1 {
			id = k.Doc.Node(id).Parent
		}
		j = l.SeekStart(k.Doc.Node(id).End + 1)
	}
	return NoPointer
}
