// Package maintain repairs materialized tree-pattern views after a document
// update instead of re-materializing them: from the splice descriptor of a
// subtree insert/append/delete (xmltree.Applied) it derives the successor
// of a view's paged store at the cost of the splice, not of the document
// (DESIGN.md, "Region-local maintenance", has the argument in full).
//
// After a subtree splice an embedding of the view can appear or disappear
// only if it has a node in the fragment or on the splice point's ancestor
// chain; any other node keeps its subtree, hence its downward
// qualification, and keeps its membership unless a chain node above it
// changes its own. View finds a region R of the updated document outside
// of which membership did not move — the fragment, or the subtree of the
// highest chain node that may join (insert) or loses its last witness
// (delete) — recomputes membership inside R with views.SolutionLists, and
// emits each list as old[0:a) ++ region ++ old[b:) through store.Splicer.
// Pointers are computed afresh only where R can reach them: R's records,
// the chain's, and per list the left spine.
//
// The tuple scheme (T) has no per-node lists to cut: its views take the
// label shift when no fragment node has a view type and are rebuilt
// otherwise. Every path is verifiable against the oracle — Rematerialize —
// byte for byte; Verify is that check.
package maintain

import (
	"fmt"
	"slices"

	"viewjoin/internal/store"
	"viewjoin/internal/tpq"
	"viewjoin/internal/views"
	"viewjoin/internal/xmltree"
)

// Report describes how one view store was maintained.
type Report struct {
	// FastPath reports that no inserted or deleted node had a view type:
	// membership could not change and no pointer was recomputed.
	FastPath bool
	// RecomputedEntries counts the list records derived from the document
	// rather than carried over: the region's records plus the chain and
	// left-spine records whose pointers were set again. It is the measure
	// of locality — bounded by the region, not by the lists.
	RecomputedEntries int
}

// View derives the successor of a view's store after the document update
// described by au. The old store is not modified — readers holding it keep
// a consistent pre-update snapshot; the returned store reflects au.New and
// shares every record the update did not reach with the old one.
func View(old *store.ViewStore, au *xmltree.Applied) (*store.ViewStore, Report, error) {
	// The fast-path condition: no inserted or deleted node's tag occurs
	// among the view's labels.
	disjoint := !slices.ContainsFunc(old.View.Nodes, func(n tpq.Node) bool { return au.FragTypes[n.Label] })
	if old.Kind == store.Tuple {
		if disjoint {
			return store.NewSplicer(old, au.Pivot, au.Delta, nil).Finish(), Report{FastPath: true}, nil
		}
		next, err := Rematerialize(au.New, old.View, old.Kind, old.PageSize)
		if err != nil {
			return nil, Report{}, fmt.Errorf("maintain: rebuild: %w", err)
		}
		return next, Report{RecomputedEntries: next.TotalEntries()}, nil
	}

	m := &splice{old: old, au: au, Linker: views.NewLinker(au.New, old.View)}
	m.locate(disjoint)
	chain, above, parent := m.context()
	sol := views.SolutionLists(m.Doc, m.View, views.Region{Lo: m.lo, Hi: m.hi, Above: above, Parent: parent})
	cuts := make([]store.Cut, len(old.Lists))
	recomputed := 0
	for q, l := range old.Lists {
		cuts[q] = store.Cut{A: l.SeekStart(m.first), B: l.SeekStart(m.last + 1)}
		for _, e := range chain[q] {
			cuts[q].Chain = append(cuts[q].Chain, e.pos)
		}
		cuts[q].Region = sol[q]
		recomputed += len(sol[q])
	}
	sp := store.NewSplicer(old, au.Pivot, au.Delta, cuts)
	if old.Kind != store.Element && !disjoint {
		for q := range old.Lists {
			m.Lists[q] = sp.List(q)
		}
		recomputed = 0
		for q := range old.Lists {
			todo := m.reached(q, cuts[q], chain)
			for _, i := range todo {
				f, d, ch := m.Pointers(q, i)
				sp.SetPointers(q, i, f, d, ch)
			}
			recomputed += len(todo)
		}
	}
	return sp.Finish(), Report{FastPath: disjoint, RecomputedEntries: recomputed}, nil
}

// splice is the working state of one View call over the list schemes. The
// embedded Linker is bound to the updated document, whose type ids extend
// the old document's; its Lists are the successor's.
type splice struct {
	*views.Linker
	old *store.ViewStore
	au  *xmltree.Applied

	// The region: nodes [lo, hi) of the updated document, standing in for
	// the old tag positions [first, last] (empty when last < first), below
	// the node parent — which, like every chain node, precedes the splice
	// point and so has the same id and start label in both documents.
	lo, hi      xmltree.NodeID
	first, last int32
	parent      xmltree.NodeID
}

// locate fixes the region: the fragment (or the dead range), widened to the
// subtree of the highest chain node whose membership may change.
func (m *splice) locate(disjoint bool) {
	au := m.au
	if au.Op == xmltree.OpDeleteSubtree {
		m.lo, m.hi = au.DeadID, au.DeadID
		m.first, m.last = au.DeadStart, au.DeadEnd
		m.parent = au.Old.Node(au.DeadID).Parent
	} else {
		m.lo, m.hi = au.FragBase, au.FragBase+xmltree.NodeID(au.FragCount)
		m.first, m.last = au.Pivot, au.Pivot-1
		m.parent = au.New.Node(au.FragBase).Parent
	}
	if disjoint {
		return
	}
	// Walk the chain bottom-up. On a delete, dropped[q] collects the start
	// labels of the chain members found to leave list q: a member higher up
	// cannot count them as witnesses.
	h := xmltree.NoNode
	dropped := make([][]int32, m.View.Size())
	for c := m.parent; c != xmltree.NoNode; c = au.Old.Node(c).Parent {
		n := au.Old.Node(c)
		q := m.NodeOf(n)
		if q < 0 {
			continue
		}
		member := views.IndexOf(m.old.Lists[q], n.Start) >= 0
		if au.Op != xmltree.OpDeleteSubtree {
			if !member {
				h = c
			}
		} else if member && !m.keepsWitnesses(n, q, dropped) {
			dropped[q] = append(dropped[q], n.Start)
			h = c
		}
	}
	if h != xmltree.NoNode {
		n := au.Old.Node(h)
		m.lo, m.hi = h, h+xmltree.NodeID(m.Doc.SubtreeSize(h))
		m.first, m.last = n.Start, n.End
		m.parent = n.Parent
	}
}

// keepsWitnesses reports whether chain member n of list q still has, after
// the delete, a qualified partner for each pattern child: a record of the
// child's old list under n (a direct child for a pc-edge) that is neither
// dead nor a chain member already found to leave.
func (m *splice) keepsWitnesses(n xmltree.Node, q int, dropped [][]int32) bool {
	for _, c := range m.View.Nodes[q].Children {
		l := m.old.Lists[c]
		found := false
		for i := l.SeekStart(n.Start + 1); i < l.Entries() && !found; {
			y := l.LabelAt(i)
			switch {
			case y.Start > n.End:
				i = l.Entries()
			case m.au.DeadPos(y.Start):
				i = l.SeekStart(m.au.DeadEnd + 1)
			case m.View.Nodes[c].Axis == tpq.Child && y.Level != n.Level+1, slices.Contains(dropped[c], y.Start):
				i++
			default:
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// chainEntry is a list record that is an ancestor of the region.
type chainEntry struct {
	pos int // position in its list, the same before and after the update
	id  xmltree.NodeID
}

// context collects the chain above the region: per list its records,
// bottom-up, and the upward context views.Region asks for. By the choice
// of the region none of these nodes changed membership, so the old lists
// answer for the updated document.
func (m *splice) context() (chain [][]chainEntry, above, parent []bool) {
	nq := m.View.Size()
	chain, above, parent = make([][]chainEntry, nq), make([]bool, nq), make([]bool, nq)
	for c := m.parent; c != xmltree.NoNode; c = m.Doc.Node(c).Parent {
		n := m.Doc.Node(c)
		q := m.NodeOf(n)
		if q < 0 {
			continue
		}
		if i := views.IndexOf(m.old.Lists[q], n.Start); i >= 0 {
			above[q] = true
			parent[q] = parent[q] || c == m.parent
			chain[q] = append(chain[q], chainEntry{pos: i, id: c})
		}
	}
	return chain, above, parent
}

// reached returns the records of list q (positions in the successor list)
// whose pointers the region can have changed, ascending: the region's own,
// the chain's, the record just before the region, and the left spines.
func (m *splice) reached(q int, cut store.Cut, chain [][]chainEntry) []int {
	var out []int
	for i := range cut.Region {
		out = append(out, cut.A+i)
	}
	for _, e := range chain[q] {
		out = append(out, e.pos)
	}
	if cut.A > 0 {
		// Its descendant pointer, and LEp's reduction of it, look at the
		// next record — now the region's first, or the first behind it.
		out = append(out, cut.A-1)
	}
	// A following pointer stays within the group of its record's lowest
	// ancestor in the parent's list (the whole list for the view root). A
	// record before the region can have gained or lost a target in it, or
	// behind it, only if its group spans the region — a chain record of
	// the parent's list — and no record of the group lies in between.
	if p := m.View.Nodes[q].Parent; p < 0 {
		out = m.spine(out, q, cut.A, xmltree.NoNode)
	} else {
		for _, g := range chain[p] {
			out = m.spine(out, q, cut.A, g.id)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// spine appends the last record of list q before position a whose group is
// g (NoNode: the unscoped list's single group), and that record's
// ancestors in list q below g — the records of the group that no record of
// the group follows before the region.
func (m *splice) spine(out []int, q, a int, g xmltree.NodeID) []int {
	l := m.Lists[q]
	low := 0
	if g != xmltree.NoNode {
		low = l.SeekStart(m.Doc.Node(g).Start + 1)
	}
	for k := a - 1; k >= low; {
		id := m.Doc.FindByStart(l.LabelAt(k).Start)
		if top := m.GroupBelow(q, id, g); top != xmltree.NoNode {
			// k belongs to a group nested in g, as does every record under
			// that group's outermost enclosing one. Step over it.
			k = l.SeekStart(m.Doc.Node(top).Start) - 1
			continue
		}
		out = append(out, k)
		m.ListAncestors(q, id, g, func(_ xmltree.NodeID, pos int) bool { out = append(out, pos); return true })
		break
	}
	return out
}

// Rematerialize builds the view store from scratch over doc — the oracle
// every maintenance path must equal byte for byte.
func Rematerialize(doc *xmltree.Document, v *tpq.Pattern, kind store.Kind, pageSize int) (*store.ViewStore, error) {
	m, err := views.Materialize(doc, v)
	if err != nil {
		return nil, err
	}
	return store.Build(m, kind, pageSize)
}

// Verify checks a maintained store against the from-scratch oracle on doc:
// identical structure, headers and record bytes. It is the verification
// spine of the update test harness.
func Verify(got *store.ViewStore, doc *xmltree.Document) error {
	want, err := Rematerialize(doc, got.View, got.Kind, got.PageSize)
	if err != nil {
		return fmt.Errorf("maintain: oracle: %w", err)
	}
	if err := store.CheckEquivalent(got, want); err != nil {
		return fmt.Errorf("maintain: maintained store diverges from rematerialized oracle: %w", err)
	}
	return nil
}
