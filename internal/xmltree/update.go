// Document updates: subtree insert, append and delete.
//
// A Document is immutable, so an update produces a fresh Document plus an
// Applied descriptor characterizing the label splice. Region labels make
// the splice arithmetic exact: a fragment of m nodes occupies 2m
// consecutive tag positions, so every surviving node's label is either
// unchanged (position < Pivot) or shifted by the constant Delta
// (position >= Pivot). The successor applies that rule lazily, as a piece
// table over the predecessor's arrays (pieces.go); the descriptor is what
// lets the maintenance layer repair materialized views by splicing label
// lists instead of re-materializing.
package xmltree

import (
	"fmt"
	"maps"
	"slices"
)

// UpdateOp enumerates the supported subtree mutations.
type UpdateOp int

const (
	// OpInsertBefore splices a fragment in as the immediately preceding
	// sibling of the target node.
	OpInsertBefore UpdateOp = iota
	// OpAppendChild splices a fragment in as the last child of the target
	// node.
	OpAppendChild
	// OpDeleteSubtree removes the subtree rooted at the target node.
	OpDeleteSubtree
)

// String returns the op name.
func (op UpdateOp) String() string {
	switch op {
	case OpInsertBefore:
		return "insert-before"
	case OpAppendChild:
		return "append-child"
	case OpDeleteSubtree:
		return "delete-subtree"
	}
	return fmt.Sprintf("<op %d>", int(op))
}

// Update describes one subtree mutation against a Document. Fragment is a
// self-contained single-root document whose subtree is spliced in (ignored
// for OpDeleteSubtree).
type Update struct {
	Op       UpdateOp
	Target   NodeID
	Fragment *Document
}

// Applied is the result of applying an Update: the new immutable document
// plus the splice parameters downstream layers use to remap old labels.
//
// The remap rule is uniform across all three ops: an old tag position p
// survives to position p when p < Pivot and to p+Delta when p >= Pivot.
// For deletes, positions in [DeadStart, DeadEnd] do not survive at all;
// no surviving label lies in that range, so Remap is total on survivors.
type Applied struct {
	Old *Document
	New *Document
	Op  UpdateOp

	Pivot int32 // first old position affected by the shift
	Delta int32 // +2m for an m-node insert, -(2m) for an m-node delete

	// Delete only: the old-position range and node-id range removed.
	DeadStart, DeadEnd int32
	DeadID             NodeID // old id of the deleted subtree root
	DeadCount          int    // nodes removed

	// Insert/append only: where the fragment landed in the new document.
	FragBase  NodeID // new id of the fragment root
	FragCount int    // nodes inserted

	// FragTypes holds the tag names of every inserted or deleted node.
	// When FragTypes is disjoint from a view's label alphabet, the view's
	// solution lists are exactly the old lists remapped — the maintenance
	// fast path.
	FragTypes map[string]bool
}

// Remap returns the post-update position of a surviving old position.
func (a *Applied) Remap(p int32) int32 {
	if p < a.Pivot {
		return p
	}
	return p + a.Delta
}

// DeadPos reports whether an old tag position was removed by the update.
func (a *Applied) DeadPos(p int32) bool {
	return a.Op == OpDeleteSubtree && p >= a.DeadStart && p <= a.DeadEnd
}

// Apply produces the updated document. The receiver is not modified;
// readers holding it observe no change.
func (d *Document) Apply(u Update) (*Applied, error) {
	switch u.Op {
	case OpInsertBefore, OpAppendChild:
		return d.applyInsert(u)
	case OpDeleteSubtree:
		return d.applyDelete(u)
	}
	return nil, fmt.Errorf("xmltree: unknown update op %d", int(u.Op))
}

func (d *Document) checkTarget(t NodeID) error {
	if t < 0 || int(t) >= d.NumNodes() {
		return fmt.Errorf("xmltree: update target %d out of range [0,%d)", t, d.NumNodes())
	}
	return nil
}

func checkFragment(f *Document) error {
	if f == nil || f.NumNodes() == 0 {
		return fmt.Errorf("xmltree: update fragment is empty")
	}
	if err := f.Validate(); err != nil {
		return fmt.Errorf("xmltree: update fragment invalid: %w", err)
	}
	return nil
}

// mergeNames returns d's name table extended by f's new names, together
// with a fragment-type -> merged-type translation. Existing TypeIDs are
// stable: fragment-only names are appended. The tables are immutable, so
// the predecessor's are shared unless the fragment brings a new tag.
func (d *Document) mergeNames(f *Document) (names []string, nameIDs map[string]TypeID, fragType []TypeID) {
	names, nameIDs = d.names, d.nameIDs
	fragType = make([]TypeID, len(f.names))
	for ft, name := range f.names {
		id, ok := nameIDs[name]
		if !ok {
			if len(names) == len(d.names) {
				names, nameIDs = names[:len(names):len(names)], maps.Clone(nameIDs)
			}
			id = TypeID(len(names))
			names = append(names, name)
			nameIDs[name] = id
		}
		fragType[ft] = id
	}
	return names, nameIDs, fragType
}

func (d *Document) applyInsert(u Update) (*Applied, error) {
	if err := d.checkTarget(u.Target); err != nil {
		return nil, err
	}
	if err := checkFragment(u.Fragment); err != nil {
		return nil, err
	}
	if u.Op == OpInsertBefore && u.Target == d.Root() {
		return nil, fmt.Errorf("xmltree: cannot insert a sibling of the root")
	}
	f := u.Fragment
	m := f.NumNodes()

	// Splice coordinates. Insert-before: the fragment takes over the
	// target's start position, pushing the target (and everything at or
	// after it) right by 2m. Append-child: the fragment lands where the
	// target's end tag was, pushing the end tag (and everything after)
	// right by 2m.
	t := d.Node(u.Target)
	pivot, parentOfRoot, baseLevel := t.Start, t.Parent, t.Level
	if u.Op == OpAppendChild {
		pivot, parentOfRoot, baseLevel = t.End, u.Target, t.Level+1
	}

	// The fragment becomes a source of its own: types and levels are final
	// here, positions and ids stay the fragment's and are translated by the
	// piece, and the root hangs under the raw record of its parent.
	names, nameIDs, fragType := d.mergeNames(f)
	fragTypes := make(map[string]bool, len(f.names))
	nodes := slices.Clone(f.Nodes())
	for i := range nodes {
		fragTypes[f.names[nodes[i].Type]] = true
		nodes[i].Type = fragType[nodes[i].Type]
		nodes[i].Level += baseLevel
	}
	ps := d.table()
	up := &ps[byID(ps, parentOfRoot)]
	left, right := split(ps, pivot)
	fragBase := right[0].first // the nodes that start before the pivot
	frag := piece{
		src:   &source{nodes: nodes, up: up.src, upID: up.lo + parentOfRoot - up.first},
		posLo: 1, posHi: int32(2*m + 1), hi: NodeID(m),
		dpos: pivot - 1, first: fragBase,
	}

	return &Applied{
		Old:       d,
		New:       &Document{names: names, nameIDs: nameIDs, pieces: join(left, []piece{frag}, right, int32(2*m), NodeID(m))},
		Op:        u.Op,
		Pivot:     pivot,
		Delta:     int32(2 * m),
		DeadEnd:   -1,
		FragBase:  fragBase,
		FragCount: m,
		FragTypes: fragTypes,
	}, nil
}

func (d *Document) applyDelete(u Update) (*Applied, error) {
	if err := d.checkTarget(u.Target); err != nil {
		return nil, err
	}
	if u.Target == d.Root() {
		return nil, fmt.Errorf("xmltree: cannot delete the document root")
	}
	t := d.Node(u.Target)
	delta := -(t.End - t.Start + 1)
	dead := NodeID(-delta / 2)

	fragTypes := make(map[string]bool)
	for _, n := range d.Range(u.Target, u.Target+dead) {
		fragTypes[d.names[n.Type]] = true
	}

	// The pieces between the target's two tags go; the later ones move left.
	// Survivors keep their raw records: an ancestor's end and a following
	// sibling's parent are translated on read. The name table is shared
	// as-is even if the deleted type no longer occurs, so surviving TypeIDs
	// stay stable across the update.
	left, rest := split(d.table(), t.Start)
	_, right := split(rest, t.End+1)

	return &Applied{
		Old:       d,
		New:       &Document{names: d.names, nameIDs: d.nameIDs, pieces: join(left, nil, right, delta, -dead)},
		Op:        u.Op,
		Pivot:     t.Start,
		Delta:     delta,
		DeadStart: t.Start,
		DeadEnd:   t.End,
		DeadID:    u.Target,
		DeadCount: int(dead),
		FragTypes: fragTypes,
	}, nil
}
