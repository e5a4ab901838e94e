package views

import (
	"fmt"

	"viewjoin/internal/tpq"
)

// fillDescendantPointers sets each entry's Descendant pointer: the first
// same-type descendant in the same list. Lists are sorted by start and
// regions are properly nested, so the smallest-start descendant of entry i
// is entry i+1 when contained, and absent otherwise.
func (m *Materialized) fillDescendantPointers() {
	for _, list := range m.Lists {
		for i := range list {
			if i+1 < len(list) && list[i+1].Start < list[i].End {
				list[i].Descendant = int32(i + 1)
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
	for q, list := range m.Lists {
		p := m.View.Nodes[q].Parent
		if p == -1 {
			// No parent query node: the whole list is one group.
			stack = follow(list, nil, stack)
			continue
		}
		// Group entries by their lowest α-type ancestor (α = parent view
		// node); following pointers stay within a group. The ancestor
		// positions are dense, -1 or a position in α's list, so a counting
		// sort lays the groups out in one array, each in document order:
		// group a is order[begin[a+1]:begin[a+2]].
		anc := m.lowestAncestorIn(p, q)
		begin := make([]int32, len(m.Lists[p])+2)
		for _, a := range anc {
			begin[a+2]++
		}
		for g := 2; g < len(begin); g++ {
			begin[g] += begin[g-1]
		}
		order := make([]int32, len(list))
		for i, a := range anc {
			order[begin[a+1]] = int32(i)
			begin[a+1]++
		}
		// Each group's begin has moved to its end, the next group's begin.
		lo := int32(0)
		for _, hi := range begin[:len(begin)-1] {
			stack = follow(list, order[lo:hi], stack)
			lo = hi
		}
	}
}

// follow sets the Following pointers of one group: the entries at
// positions g of list, or the whole list when g is nil, in document order.
// An entry's pointer is the first later entry that starts after it ends.
// The entries still waiting for theirs are nested, innermost on top of the
// stack, so each arrival settles a run off the top. stack is scratch,
// returned for reuse.
func follow(list []Entry, g []int32, stack []int32) []int32 {
	n := len(list)
	if g != nil {
		n = len(g)
	}
	stack = stack[:0]
	for x := range n {
		k := int32(x)
		if g != nil {
			k = g[x]
		}
		for len(stack) > 0 && list[stack[len(stack)-1]].End < list[k].Start {
			list[stack[len(stack)-1]].Following = k
			stack = stack[:len(stack)-1]
		}
		stack = append(stack, k)
	}
	return stack
}

// lowestAncestorIn returns, for each entry of list q, the position in list
// p of its lowest containing entry (or -1). Both lists are in document
// order; a stack-based merge runs in linear time.
func (m *Materialized) lowestAncestorIn(p, q int) []int32 {
	plist, qlist := m.Lists[p], m.Lists[q]
	out := make([]int32, len(qlist))
	var stack []int32
	pi := 0
	for i := range qlist {
		s := qlist[i].Start
		for pi < len(plist) && plist[pi].Start < s {
			for len(stack) > 0 && plist[stack[len(stack)-1]].End < plist[pi].Start {
				stack = stack[:len(stack)-1]
			}
			stack = append(stack, int32(pi))
			pi++
		}
		for len(stack) > 0 && plist[stack[len(stack)-1]].End < s {
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
	for q, list := range m.Lists {
		for ci, c := range m.View.Nodes[q].Children {
			clist := m.Lists[c]
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
						list[i].Children[ci] = int32(j)
					}
				}
			case tpq.Child:
				// A node's parent is its nearest ancestor, so when the
				// parent is in this list it is the child's lowest ancestor
				// here, one level up. The first child found keeps the slot.
				for j, a := range m.lowestAncestorIn(q, c) {
					if a >= 0 && list[a].Level == clist[j].Level-1 && list[a].Children[ci] == NoPointer {
						list[a].Children[ci] = int32(j)
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
	out := &Materialized{View: m.View, Doc: m.Doc, Lists: make([][]Entry, len(m.Lists))}
	for q, list := range m.Lists {
		nl := make([]Entry, len(list))
		copy(nl, list)
		nc := len(m.View.Nodes[q].Children)
		kids := make([]int32, nc*len(list))
		for i := range nl {
			if nc > 0 {
				nl[i].Children = kids[i*nc : (i+1)*nc : (i+1)*nc]
				copy(nl[i].Children, list[i].Children)
			}
			switch policy {
			case NoPointers:
				nl[i].Following = NoPointer
				nl[i].Descendant = NoPointer
				for c := range nl[i].Children {
					nl[i].Children[c] = NoPointer
				}
			case PartialPointers:
				// Keep following/descendant only when the pointed node is
				// more than k entries away (§III-C with k = 1).
				if nl[i].Following != NoPointer && nl[i].Following <= int32(i)+k {
					nl[i].Following = NoPointer
				}
				if nl[i].Descendant != NoPointer && nl[i].Descendant <= int32(i)+k {
					nl[i].Descendant = NoPointer
				}
			}
		}
		out.Lists[q] = nl
	}
	return out
}
