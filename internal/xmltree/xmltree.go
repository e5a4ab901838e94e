// Package xmltree models XML documents as ordered labelled trees with
// region labels, the data representation used throughout the ViewJoin
// reproduction.
//
// Following the region labelling scheme of Li & Moon (VLDB 2001) adopted by
// the paper (§II), each node carries a 3-tuple <start, end, level>: 'start'
// and 'end' are the positions of the node's start and end tags in the
// document, and 'level' is the depth of the node (root at level 0). With
// these labels, structural relationships between any two nodes are decided
// in O(1):
//
//   - a is an ancestor of b  iff  a.start < b.start && b.end < a.end
//   - a is the parent of b   iff  a is an ancestor of b && a.level == b.level-1
//   - a' follows a           iff  a'.start > a.end
package xmltree

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// TypeID identifies an element type (tag name) within a Document.
// TypeIDs are dense and start at 0; they are only meaningful relative to the
// Document that issued them.
type TypeID int32

// NoType is returned by lookups for element names absent from a document.
const NoType TypeID = -1

// NodeID identifies a node within a Document. Nodes are stored in document
// order, so NodeID order coincides with ascending start-label order.
type NodeID int32

// NoNode is the nil NodeID.
const NoNode NodeID = -1

// Node is one element of an XML data tree with its region label.
type Node struct {
	Type   TypeID // element type
	Start  int32  // position of the start tag
	End    int32  // position of the end tag
	Level  int32  // depth; root is 0
	Parent NodeID // parent node, NoNode for the root
}

// IsAncestorOf reports whether n strictly contains m.
func (n Node) IsAncestorOf(m Node) bool {
	return n.Start < m.Start && m.End < n.End
}

// IsParentOf reports whether n is the parent of m.
func (n Node) IsParentOf(m Node) bool {
	return n.Level == m.Level-1 && n.IsAncestorOf(m)
}

// Follows reports whether n is a following node of m (n starts after m ends).
func (n Node) Follows(m Node) bool {
	return n.Start > m.End
}

// Document is an immutable XML data tree. Nodes are stored in document
// order; node 0 is the root. A document built by a Builder holds them in
// one flat array; one derived by Apply holds a piece table (pieces.go) and
// writes the flat array out the first time a bulk reader asks for it.
type Document struct {
	names   []string
	nameIDs map[string]TypeID
	nodes   []Node  // built flat; nil in a derived document
	pieces  []piece // derived; nil in a document built flat

	flatOnce sync.Once
	flat     atomic.Pointer[[]Node] // a derived document's write-out

	// Lazily built index, guarded for concurrent readers: a Document is
	// immutable after construction and safe for parallel query evaluation.
	typeOnce sync.Once
	byType   [][]NodeID // type -> nodes of that type in doc order
}

// NumNodes returns the number of element nodes in the document.
func (d *Document) NumNodes() int {
	if d.pieces == nil {
		return len(d.nodes)
	}
	p := &d.pieces[len(d.pieces)-1]
	return int(p.first + p.hi - p.lo)
}

// NumPieces returns the size of the document's piece table; 1 for a flat
// document.
func (d *Document) NumPieces() int { return max(1, len(d.pieces)) }

// NumTypes returns the number of distinct element types in the document.
func (d *Document) NumTypes() int { return len(d.names) }

// Root returns the NodeID of the document root.
func (d *Document) Root() NodeID { return 0 }

// Node returns the node with the given id. It panics if id is out of range.
func (d *Document) Node(id NodeID) Node {
	if d.pieces == nil {
		return d.nodes[id]
	}
	return d.pieceNode(id)
}

func (d *Document) pieceNode(id NodeID) Node {
	if flat := d.flatNodes(); flat != nil {
		return flat[id]
	}
	i := byID(d.pieces, id)
	p := &d.pieces[i]
	return translate(d.pieces, i, p.src.nodes[p.lo+id-p.first])
}

// Nodes returns the node slice in document order. Callers must not modify
// it. On a derived document the first call writes the piece table out.
func (d *Document) Nodes() []Node {
	if d.pieces == nil {
		return d.nodes
	}
	d.flatOnce.Do(func() {
		f := d.Range(0, NodeID(d.NumNodes()))
		d.flat.Store(&f)
	})
	return *d.flat.Load()
}

// TypeName returns the tag name for a type id.
func (d *Document) TypeName(t TypeID) string {
	if t < 0 || int(t) >= len(d.names) {
		return fmt.Sprintf("<type %d>", t)
	}
	return d.names[t]
}

// TypeByName returns the TypeID for a tag name, or NoType if the document
// has no element with that name.
func (d *Document) TypeByName(name string) TypeID {
	if id, ok := d.nameIDs[name]; ok {
		return id
	}
	return NoType
}

// NodesOfType returns the ids of all nodes with the given type, in document
// order. The returned slice is shared; callers must not modify it.
func (d *Document) NodesOfType(t TypeID) []NodeID {
	if t < 0 || int(t) >= len(d.names) {
		return nil
	}
	d.typeOnce.Do(d.buildTypeIndex)
	return d.byType[t]
}

func (d *Document) buildTypeIndex() {
	nodes := d.Nodes()
	counts := make([]int, len(d.names))
	for i := range nodes {
		counts[nodes[i].Type]++
	}
	d.byType = make([][]NodeID, len(d.names))
	for t := range d.byType {
		d.byType[t] = make([]NodeID, 0, counts[t])
	}
	for i := range nodes {
		t := nodes[i].Type
		d.byType[t] = append(d.byType[t], NodeID(i))
	}
}

// Children returns the ids of the direct children of id, in document order.
func (d *Document) Children(id NodeID) []NodeID {
	var out []NodeID
	n := d.Node(id)
	// Children are contiguous in document order between id and the first
	// node starting after n.End; walk them by skipping over subtrees.
	for c := id + 1; int(c) < d.NumNodes() && d.Node(c).Start < n.End; {
		out = append(out, c)
		c = d.nextAfterSubtree(c)
	}
	return out
}

// nextAfterSubtree returns the first node in document order that is not in
// the subtree rooted at id.
func (d *Document) nextAfterSubtree(id NodeID) NodeID {
	end := d.Node(id).End
	// Nodes are sorted by Start; find the first one with Start > end.
	run, dpos, first := d.runAt(end)
	return first + NodeID(sort.Search(len(run), func(k int) bool { return run[k].Start+dpos > end }))
}

// SubtreeSize returns the number of nodes in the subtree rooted at id
// (including id itself).
func (d *Document) SubtreeSize(id NodeID) int {
	return int(d.nextAfterSubtree(id) - id)
}

// FindByStart returns the node id whose Start label equals start, or NoNode:
// a binary search over the start-ordered nodes. It serves update targeting
// and result re-materialization; no evaluation engine resolves node ids.
func (d *Document) FindByStart(start int32) NodeID {
	run, dpos, first := d.runAt(start)
	i := sort.Search(len(run), func(k int) bool { return run[k].Start+dpos >= start })
	if i == len(run) || run[i].Start+dpos != start {
		return NoNode
	}
	return first + NodeID(i)
}

// Validate checks the structural invariants of the document: nodes sorted by
// start, regions properly nested, levels consistent with parents. It is used
// by tests and by generators as a self-check.
func (d *Document) Validate() error {
	nodes := d.Nodes()
	if len(nodes) == 0 {
		return fmt.Errorf("xmltree: empty document")
	}
	root := nodes[0]
	if root.Parent != NoNode {
		return fmt.Errorf("xmltree: root has parent %d", root.Parent)
	}
	if root.Level != 0 {
		return fmt.Errorf("xmltree: root level = %d, want 0", root.Level)
	}
	for i := 1; i < len(nodes); i++ {
		n := nodes[i]
		prev := nodes[i-1]
		if n.Start <= prev.Start {
			return fmt.Errorf("xmltree: node %d start %d <= previous start %d", i, n.Start, prev.Start)
		}
		if n.Start >= n.End {
			return fmt.Errorf("xmltree: node %d start %d >= end %d", i, n.Start, n.End)
		}
		if n.Parent < 0 || n.Parent >= NodeID(i) {
			return fmt.Errorf("xmltree: node %d has invalid parent %d", i, n.Parent)
		}
		p := nodes[n.Parent]
		if !p.IsAncestorOf(n) {
			return fmt.Errorf("xmltree: node %d not contained in parent %d", i, n.Parent)
		}
		if p.Level != n.Level-1 {
			return fmt.Errorf("xmltree: node %d level %d, parent level %d", i, n.Level, p.Level)
		}
		if n.Type < 0 || int(n.Type) >= len(d.names) {
			return fmt.Errorf("xmltree: node %d has invalid type %d", i, n.Type)
		}
	}
	return nil
}

// Builder constructs a Document incrementally via Begin/End calls that
// mirror start and end tags. It assigns region labels as it goes.
type Builder struct {
	names   []string
	nameIDs map[string]TypeID
	nodes   []Node
	stack   []NodeID
	pos     int32
	err     error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{nameIDs: make(map[string]TypeID)}
}

func (b *Builder) typeID(name string) TypeID {
	if id, ok := b.nameIDs[name]; ok {
		return id
	}
	id := TypeID(len(b.names))
	b.names = append(b.names, name)
	b.nameIDs[name] = id
	return id
}

// Begin opens a new element with the given tag name.
func (b *Builder) Begin(name string) {
	if b.err == nil {
		b.open(b.typeID(name))
	}
}

// beginBytes is Begin for a name held in a reused buffer: the map lookup
// does not copy it, so a name is copied once per type, not per element.
func (b *Builder) beginBytes(name []byte) {
	if b.err != nil {
		return
	}
	id, ok := b.nameIDs[string(name)]
	if !ok {
		id = b.typeID(string(name))
	}
	b.open(id)
}

func (b *Builder) open(t TypeID) {
	if len(b.stack) == 0 && len(b.nodes) > 0 {
		b.err = fmt.Errorf("xmltree: second root element %q", b.names[t])
		return
	}
	parent := NoNode
	level := int32(0)
	if len(b.stack) > 0 {
		parent = b.stack[len(b.stack)-1]
		level = b.nodes[parent].Level + 1
	}
	b.pos++
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{
		Type:   t,
		Start:  b.pos,
		End:    -1,
		Level:  level,
		Parent: parent,
	})
	b.stack = append(b.stack, id)
}

// End closes the most recently opened element.
func (b *Builder) End() {
	if b.err != nil {
		return
	}
	if len(b.stack) == 0 {
		b.err = fmt.Errorf("xmltree: End without matching Begin")
		return
	}
	id := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	b.pos++
	b.nodes[id].End = b.pos
}

// Element opens an element, runs body (which may add children), and closes
// it. A nil body produces a leaf.
func (b *Builder) Element(name string, body func()) {
	b.Begin(name)
	if body != nil {
		body()
	}
	b.End()
}

// Leaf adds an empty element.
func (b *Builder) Leaf(name string) { b.Begin(name); b.End() }

// Document finalizes the builder and returns the constructed document.
func (b *Builder) Document() (*Document, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.stack) != 0 {
		return nil, fmt.Errorf("xmltree: %d unclosed elements", len(b.stack))
	}
	if len(b.nodes) == 0 {
		return nil, fmt.Errorf("xmltree: no elements")
	}
	d := &Document{names: b.names, nameIDs: b.nameIDs, nodes: b.nodes}
	return d, nil
}

// MustDocument is Document but panics on error; intended for tests and
// generators whose input is known to be well-formed.
func (b *Builder) MustDocument() *Document {
	d, err := b.Document()
	if err != nil {
		panic(err)
	}
	return d
}
