package xmltree

import "fmt"

// The reference splice: Apply as it was before the piece table, an O(n)
// pass that renumbers every node into a fresh flat array. It is the oracle
// the piece table's differential tests (pieces_test.go) hold every read of
// every derived snapshot to.

// MaxPieces lets the external tests see when a table is due to be written
// out.
const MaxPieces = maxPieces

// ApplyFlat applies u to d with the reference splice. The result is a
// document built flat.
func (d *Document) ApplyFlat(u Update) (*Applied, error) {
	switch u.Op {
	case OpInsertBefore, OpAppendChild:
		return d.flatInsert(u)
	case OpDeleteSubtree:
		return d.flatDelete(u)
	}
	return nil, fmt.Errorf("xmltree: unknown update op %d", int(u.Op))
}

func (d *Document) flatInsert(u Update) (*Applied, error) {
	if err := d.checkTarget(u.Target); err != nil {
		return nil, err
	}
	if err := checkFragment(u.Fragment); err != nil {
		return nil, err
	}
	if u.Op == OpInsertBefore && u.Target == d.Root() {
		return nil, fmt.Errorf("xmltree: cannot insert a sibling of the root")
	}
	f, old := u.Fragment, d.Nodes()
	m := f.NumNodes()
	delta := int32(2 * m)

	// Splice coordinates. Insert-before: the fragment takes over the
	// target's start position, pushing the target (and everything at or
	// after it) right by 2m. Append-child: the fragment lands where the
	// target's end tag was, pushing the end tag (and everything after)
	// right by 2m.
	var pivot int32     // first shifted old position
	var fragBase NodeID // insertion point in node-id (document) order
	var parentOfRoot NodeID
	var baseLevel int32
	t := d.Nodes()[u.Target]
	switch u.Op {
	case OpInsertBefore:
		pivot = t.Start
		fragBase = u.Target
		parentOfRoot = t.Parent
		baseLevel = t.Level
	case OpAppendChild:
		pivot = t.End
		fragBase = d.nextAfterSubtree(u.Target)
		parentOfRoot = u.Target
		baseLevel = t.Level + 1
	}

	names, nameIDs, fragType := d.mergeNames(f)
	nodes := make([]Node, 0, len(old)+m)
	fragTypes := make(map[string]bool, len(f.names))
	for _, fn := range f.Nodes() {
		fragTypes[f.names[fn.Type]] = true
	}

	// Old nodes before the insertion point keep their ids and starts; only
	// ends spanning the pivot (the append target and the ancestors of the
	// splice point) shift.
	for _, n := range old[:fragBase] {
		if n.End >= pivot {
			n.End += delta
		}
		nodes = append(nodes, n)
	}
	// Fragment nodes: positions 1..2m translate to pivot..pivot+2m-1.
	for _, fn := range f.Nodes() {
		nn := Node{
			Type:  fragType[fn.Type],
			Start: fn.Start - 1 + pivot,
			End:   fn.End - 1 + pivot,
			Level: fn.Level + baseLevel,
		}
		if fn.Parent == NoNode {
			nn.Parent = parentOfRoot
		} else {
			nn.Parent = fn.Parent + fragBase
		}
		nodes = append(nodes, nn)
	}
	// Old nodes at or after the insertion point shift wholesale.
	for _, n := range old[fragBase:] {
		n.Start += delta
		n.End += delta
		if n.Parent >= fragBase {
			n.Parent += NodeID(m)
		}
		nodes = append(nodes, n)
	}

	return &Applied{
		Old:       d,
		New:       &Document{names: names, nameIDs: nameIDs, nodes: nodes},
		Op:        u.Op,
		Pivot:     pivot,
		Delta:     delta,
		DeadEnd:   -1,
		FragBase:  fragBase,
		FragCount: m,
		FragTypes: fragTypes,
	}, nil
}

func (d *Document) flatDelete(u Update) (*Applied, error) {
	if err := d.checkTarget(u.Target); err != nil {
		return nil, err
	}
	if u.Target == d.Root() {
		return nil, fmt.Errorf("xmltree: cannot delete the document root")
	}
	t := d.Nodes()[u.Target]
	old := d.Nodes()
	dead := d.SubtreeSize(u.Target)
	after := u.Target + NodeID(dead)
	delta := -(t.End - t.Start + 1)

	nodes := make([]Node, 0, len(old)-dead)
	fragTypes := make(map[string]bool)
	for _, n := range old[u.Target:after] {
		fragTypes[d.names[n.Type]] = true
	}

	// Survivors before the subtree keep ids and starts; ancestors of the
	// target (the only earlier nodes whose regions span it) lose the dead
	// range from their extent.
	for _, n := range old[:u.Target] {
		if n.End > t.End {
			n.End += delta
		}
		nodes = append(nodes, n)
	}
	// Survivors after the subtree shift left wholesale. Their parents are
	// never inside the dead range: a dead node's region ends at t.End,
	// before any surviving start on this side.
	for _, n := range old[after:] {
		n.Start += delta
		n.End += delta
		if n.Parent >= after {
			n.Parent -= NodeID(dead)
		}
		nodes = append(nodes, n)
	}

	// The name table is kept as-is even if the deleted type no longer
	// occurs, so surviving TypeIDs stay stable across the update.
	names := append([]string(nil), d.names...)
	nameIDs := make(map[string]TypeID, len(d.nameIDs))
	for name, id := range d.nameIDs {
		nameIDs[name] = id
	}

	return &Applied{
		Old:       d,
		New:       &Document{names: names, nameIDs: nameIDs, nodes: nodes},
		Op:        u.Op,
		Pivot:     t.Start,
		Delta:     delta,
		DeadStart: t.Start,
		DeadEnd:   t.End,
		DeadID:    u.Target,
		DeadCount: dead,
		FragTypes: fragTypes,
	}, nil
}
