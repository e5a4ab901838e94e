package views

import (
	"fmt"
	"slices"

	"viewjoin/internal/tpq"
)

// fillDescendantPointers sets each entry's Descendant pointer: the first
// same-type descendant in the same list. Lists are sorted by start and
// regions are properly nested, so the smallest-start descendant of entry i
// is entry i+1 when contained, and absent otherwise.
func (m *Materialized) fillDescendantPointers() {
	for q := range m.Lists {
		l := &m.Lists[q]
		for i := 1; i < len(l.Labels); i++ {
			if l.Labels[i].Start < l.Labels[i-1].End {
				l.Descendant[i-1] = int32(i)
			}
		}
	}
}

// fillFollowingPointers sets each entry's Following pointer: the first
// same-type following node (start > this end); when the view node has a
// parent query node α, both endpoints must share the same lowest α-type
// ancestor within the view (§III-A pointer 3).
func (m *Materialized) fillFollowingPointers() {
	var stack []int32
	for q := range m.Lists {
		l := &m.Lists[q]
		p := m.View.Nodes[q].Parent
		if p == -1 {
			// No parent query node: the whole list is one group.
			stack = follow(l, nil, stack)
			continue
		}
		// Group entries by their lowest α-type ancestor (α = parent view
		// node); following pointers stay within a group. The ancestor
		// positions are dense, -1 or a position in α's list, so a counting
		// sort lays the groups out in one array, each in document order:
		// group a is order[begin[a+1]:begin[a+2]].
		anc := lowestAncestorIn(m.Lists[p].Labels, l.Labels)
		begin := make([]int32, len(m.Lists[p].Labels)+2)
		for _, a := range anc {
			begin[a+2]++
		}
		for g := 2; g < len(begin); g++ {
			begin[g] += begin[g-1]
		}
		order := make([]int32, len(anc))
		for i, a := range anc {
			order[begin[a+1]] = int32(i)
			begin[a+1]++
		}
		// Each group's begin has moved to its end, the next group's begin.
		lo := int32(0)
		for _, hi := range begin[:len(begin)-1] {
			stack = follow(l, order[lo:hi], stack)
			lo = hi
		}
	}
}

// follow sets the Following pointers of one group: the entries at
// positions g of list l, or the whole list when g is nil, in document
// order. An entry's pointer is the first later entry that starts after it
// ends. The entries still waiting for theirs are nested, innermost on top
// of the stack, so each arrival settles a run off the top. stack is
// scratch, returned for reuse.
func follow(l *List, g []int32, stack []int32) []int32 {
	n := len(l.Labels)
	if g != nil {
		n = len(g)
	}
	stack = stack[:0]
	for x := range n {
		k := int32(x)
		if g != nil {
			k = g[x]
		}
		for len(stack) > 0 && l.Labels[stack[len(stack)-1]].End < l.Labels[k].Start {
			l.Following[stack[len(stack)-1]] = k
			stack = stack[:len(stack)-1]
		}
		stack = append(stack, k)
	}
	return stack
}

// lowestAncestorIn returns, for each label of list q, the position in list
// p of its lowest containing label (or -1). Both lists are in document
// order; a stack-based merge runs in linear time.
func lowestAncestorIn(p, q []Label) []int32 {
	out := make([]int32, len(q))
	var stack []int32
	pi := 0
	for i := range q {
		s := q[i].Start
		for pi < len(p) && p[pi].Start < s {
			for len(stack) > 0 && p[stack[len(stack)-1]].End < p[pi].Start {
				stack = stack[:len(stack)-1]
			}
			stack = append(stack, int32(pi))
			pi++
		}
		for len(stack) > 0 && p[stack[len(stack)-1]].End < s {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			out[i] = stack[len(stack)-1]
		} else {
			out[i] = -1
		}
	}
	return out
}

// fillChildPointers sets, for each entry and each child view node, the
// position in the child's list of the first matching partner: the first
// child for pc-edges, the first descendant for ad-edges (§III-A pointer 1).
// Both lists are in document order, so each edge is one merge.
func (m *Materialized) fillChildPointers() {
	for q := range m.Lists {
		list := m.Lists[q].Labels
		for ci, c := range m.View.Nodes[q].Children {
			clist, col := m.Lists[c].Labels, m.Lists[q].Children[ci]
			switch m.View.Nodes[c].Axis {
			case tpq.Descendant:
				// The first child-list entry starting after an entry only
				// moves forward as the entries do.
				j := 0
				for i := range list {
					for j < len(clist) && clist[j].Start <= list[i].Start {
						j++
					}
					if j < len(clist) && clist[j].Start < list[i].End {
						col[i] = int32(j)
					}
				}
			case tpq.Child:
				// A node's parent is its nearest ancestor, so when the
				// parent is in this list it is the child's lowest ancestor
				// here, one level up. The first child found keeps the slot.
				for j, a := range lowestAncestorIn(list, clist) {
					if a >= 0 && list[a].Level == clist[j].Level-1 && col[a] == NoPointer {
						col[a] = int32(j)
					}
				}
			}
		}
	}
}

// PointerPolicy selects which of the conceptual DAG's pointers a storage
// scheme materializes.
type PointerPolicy int8

const (
	// FullPointers materializes every pointer: the LE scheme (§III-B).
	FullPointers PointerPolicy = iota
	// PartialPointers materializes child pointers always, and following /
	// descendant pointers only when the pointed node is more than one entry
	// away in its list: the LEp scheme (§III-C).
	PartialPointers
	// NoPointers drops every pointer: the element scheme (§I).
	NoPointers
)

// String names the policy.
func (p PointerPolicy) String() string {
	switch p {
	case FullPointers:
		return "LE"
	case PartialPointers:
		return "LEp"
	case NoPointers:
		return "E"
	default:
		return fmt.Sprintf("PointerPolicy(%d)", int(p))
	}
}

// ApplyPolicy returns a copy of m with pointers reduced per the policy.
// FullPointers returns m itself (no copy).
func (m *Materialized) ApplyPolicy(policy PointerPolicy) *Materialized {
	return m.applyPolicy(policy, 1)
}

// ApplyPartialThreshold generalizes the LEp heuristic: child pointers are
// always kept, and following/descendant pointers only when the pointed
// node is more than k entries away in its list. k = 1 is the paper's LEp
// rule (§III-C); larger k materializes fewer pointers. Used by the
// LEp-threshold ablation experiment.
func (m *Materialized) ApplyPartialThreshold(k int32) *Materialized {
	if k < 1 {
		return m
	}
	return m.applyPolicy(PartialPointers, k)
}

func (m *Materialized) applyPolicy(policy PointerPolicy, k int32) *Materialized {
	if policy == FullPointers {
		return m
	}
	out := &Materialized{View: m.View, Doc: m.Doc, Lists: make([]List, len(m.Lists))}
	for q := range m.Lists {
		l, nl := &m.Lists[q], &out.Lists[q]
		nl.Labels = l.Labels // labels are never written after the build
		nl.Following = slices.Clone(l.Following)
		nl.Descendant = slices.Clone(l.Descendant)
		nl.Children = make([][]int32, len(l.Children))
		for c := range l.Children {
			nl.Children[c] = slices.Clone(l.Children[c])
		}
		for i := range nl.Labels {
			switch policy {
			case NoPointers:
				nl.Following[i] = NoPointer
				nl.Descendant[i] = NoPointer
				for _, col := range nl.Children {
					col[i] = NoPointer
				}
			case PartialPointers:
				// Keep following/descendant only when the pointed node is
				// more than k entries away (§III-C with k = 1).
				if nl.Following[i] != NoPointer && nl.Following[i] <= int32(i)+k {
					nl.Following[i] = NoPointer
				}
				if nl.Descendant[i] != NoPointer && nl.Descendant[i] <= int32(i)+k {
					nl.Descendant[i] = NoPointer
				}
			}
		}
	}
	return out
}
