// Package viewsel implements the paper's cost-based view selection (§V):
// given a pool of materialized views and a query, pick a covering subset
// that minimizes the estimated ViewJoin evaluation cost.
//
// The cost of answering Q with view v is
//
//	c(v,Q) = (1-λ)·Σ_q |L_q|  +  λ·Σ_q |L_q|·e_q
//
// summed over the nodes q of v, where |L_q| is the size of q's materialized
// list and e_q the number of edges of q in Q not present in v (the
// interleaving conditions that remain to be joined). The paper observes
// evaluation is CPU bound and uses λ = 1.
//
// Selection is the greedy benefit heuristic of Harinarayan, Rajaraman &
// Ullman (SIGMOD 1996): repeatedly take the view with the highest
// (newly covered query nodes) / cost ratio. The problem itself is
// NP-complete.
package viewsel

import (
	"fmt"

	"viewjoin/internal/tpq"
)

// DefaultLambda is the paper's weighting of CPU join cost versus I/O cost.
const DefaultLambda = 1.0

// Candidate is a materialized view offered to the selector.
type Candidate struct {
	View *tpq.Pattern
	// ListSizes holds |L_q| per view node, in view node order. Any unit
	// works as long as it is consistent across candidates (entries, bytes).
	ListSizes []float64
	// Tag is an optional caller label (e.g. "v3") carried through results.
	Tag string
}

// Cost computes c(v,Q) for a candidate with weight lambda. It returns an
// error when v is not a subpattern of Q (such views cannot answer Q and
// must be discarded, per the paper).
func Cost(c Candidate, q *tpq.Pattern, lambda float64) (float64, error) {
	m, ok := c.View.MapOnto(q)
	if !ok {
		return 0, fmt.Errorf("viewsel: view %s is not a subpattern of query %s", c.View, q)
	}
	if len(c.ListSizes) != c.View.Size() {
		return 0, fmt.Errorf("viewsel: view %s has %d list sizes for %d nodes",
			c.View, len(c.ListSizes), c.View.Size())
	}
	io, join := 0.0, 0.0
	for vi := range c.View.Nodes {
		qn := m[vi]
		io += c.ListSizes[vi]
		join += c.ListSizes[vi] * float64(missingEdges(c.View, vi, q, qn, m))
	}
	return (1-lambda)*io + lambda*join, nil
}

// missingEdges counts e_q: the edges incident to query node qn in Q that
// are not present in the view (both the parent edge and child edges count;
// an edge is "present" when the corresponding view edge exists between the
// mapped nodes).
func missingEdges(v *tpq.Pattern, vi int, q *tpq.Pattern, qn int, m tpq.Mapping) int {
	// Query edges incident to qn.
	edges := len(q.Nodes[qn].Children)
	if qn != 0 {
		edges++
	}
	// View edges incident to vi map onto query edges... but only those whose
	// counterpart exists as a direct query edge between the mapped nodes are
	// precomputed query edges. A view edge bridging several query edges
	// (e.g. view //a//c over query //a//b//c) precomputes none of qn's
	// query edges.
	present := 0
	if vi != 0 {
		pm := m[v.Nodes[vi].Parent]
		if q.Nodes[qn].Parent == pm {
			present++
		}
	}
	for _, c := range v.Nodes[vi].Children {
		if q.Nodes[m[c]].Parent == qn {
			present++
		}
	}
	if present > edges {
		present = edges
	}
	return edges - present
}

// Result is the outcome of a selection.
type Result struct {
	// Selected holds the chosen candidates in selection order.
	Selected []Candidate
	// TotalCost is the sum of c(v,Q) over the selected views.
	TotalCost float64
	// Covered reports whether the selection covers every query node.
	Covered bool
}

// Views returns the selected view patterns.
func (r *Result) Views() []*tpq.Pattern {
	out := make([]*tpq.Pattern, len(r.Selected))
	for i := range r.Selected {
		out[i] = r.Selected[i].View
	}
	return out
}

// SelectGreedy runs the paper's greedy heuristic with the given λ: it
// discards non-subpattern candidates, then repeatedly selects the
// unselected view with the highest benefit |N_v| / c(v,Q), where N_v is
// the set of query nodes covered by v and by no already-selected view,
// until Q is covered or no candidate helps. Views whose element types
// overlap an already-selected view are skipped, keeping the paper's
// disjointness assumption. Time complexity O(|Q|·|V|) per round.
func SelectGreedy(cands []Candidate, q *tpq.Pattern, lambda float64) (*Result, error) {
	type scored struct {
		c    Candidate
		cost float64
	}
	var pool []scored
	for _, c := range cands {
		cost, err := Cost(c, q, lambda)
		if err != nil {
			continue // not a subpattern: cannot help answer Q
		}
		pool = append(pool, scored{c, cost})
	}
	covered := make(map[string]bool, q.Size())
	res := &Result{}
	for len(covered) < q.Size() {
		bestIdx := -1
		bestBenefit := 0.0
		for i, s := range pool {
			if s.c.View == nil {
				continue // already selected
			}
			newNodes := 0
			overlap := false
			for vi := range s.c.View.Nodes {
				l := s.c.View.Nodes[vi].Label
				if covered[l] {
					overlap = true
					break
				}
				newNodes++
			}
			if overlap || newNodes == 0 {
				continue
			}
			var benefit float64
			if s.cost <= 0 {
				benefit = float64(newNodes) * 1e18 // free views first
			} else {
				benefit = float64(newNodes) / s.cost
			}
			if bestIdx == -1 || benefit > bestBenefit {
				bestIdx, bestBenefit = i, benefit
			}
		}
		if bestIdx == -1 {
			break // nothing can extend the cover
		}
		sel := pool[bestIdx]
		pool[bestIdx].c.View = nil
		res.Selected = append(res.Selected, sel.c)
		res.TotalCost += sel.cost
		for vi := range sel.c.View.Nodes {
			covered[sel.c.View.Nodes[vi].Label] = true
		}
	}
	res.Covered = len(covered) == q.Size()
	return res, nil
}

// SelectBySize is the size-only baseline the paper compares against in
// Example 5.1: repeatedly pick the smallest view (by total materialized
// size) that covers at least one uncovered query node and does not overlap
// the selection, ignoring interleaving conditions. On Table II's pool this
// yields {v2, v5, v3, v4}, which the cost-based heuristic beats by 1.93x.
func SelectBySize(cands []Candidate, q *tpq.Pattern) (*Result, error) {
	type scored struct {
		c    Candidate
		size float64
		used bool
	}
	var pool []scored
	for _, c := range cands {
		if !c.View.IsSubpatternOf(q) {
			continue
		}
		size := 0.0
		for _, s := range c.ListSizes {
			size += s
		}
		pool = append(pool, scored{c: c, size: size})
	}
	covered := make(map[string]bool, q.Size())
	res := &Result{}
	for len(covered) < q.Size() {
		bestIdx := -1
		for i := range pool {
			if pool[i].used {
				continue
			}
			newNodes, overlap := 0, false
			for vi := range pool[i].c.View.Nodes {
				if covered[pool[i].c.View.Nodes[vi].Label] {
					overlap = true
					break
				}
				newNodes++
			}
			if overlap || newNodes == 0 {
				continue
			}
			if bestIdx == -1 || pool[i].size < pool[bestIdx].size {
				bestIdx = i
			}
		}
		if bestIdx == -1 {
			break
		}
		pool[bestIdx].used = true
		res.Selected = append(res.Selected, pool[bestIdx].c)
		res.TotalCost += pool[bestIdx].size
		for vi := range pool[bestIdx].c.View.Nodes {
			covered[pool[bestIdx].c.View.Nodes[vi].Label] = true
		}
	}
	res.Covered = len(covered) == q.Size()
	return res, nil
}

// SelectOptimal finds the covering subset with the minimum total cost by
// exhaustive search over subsets of the candidate pool. Exponential in
// |V| (the problem is NP-complete, §V); intended for small pools and for
// measuring the greedy heuristic's quality. Candidates that are not
// subpatterns of q are ignored; overlapping element types disqualify a
// subset (the paper's disjointness assumption).
func SelectOptimal(cands []Candidate, q *tpq.Pattern, lambda float64) (*Result, error) {
	type scored struct {
		c    Candidate
		cost float64
	}
	var pool []scored
	for _, c := range cands {
		cost, err := Cost(c, q, lambda)
		if err != nil {
			continue
		}
		pool = append(pool, scored{c, cost})
	}
	if len(pool) > 20 {
		return nil, fmt.Errorf("viewsel: optimal selection over %d candidates is infeasible (max 20)", len(pool))
	}
	need := make(map[string]bool, q.Size())
	for i := range q.Nodes {
		need[q.Nodes[i].Label] = true
	}

	best := &Result{}
	found := false
	for mask := 1; mask < 1<<len(pool); mask++ {
		covered := make(map[string]int)
		total := 0.0
		ok := true
		for i := 0; ok && i < len(pool); i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			total += pool[i].cost
			for vi := range pool[i].c.View.Nodes {
				l := pool[i].c.View.Nodes[vi].Label
				covered[l]++
				if covered[l] > 1 {
					ok = false // overlapping element types
					break
				}
			}
		}
		if !ok || (found && total >= best.TotalCost) {
			continue
		}
		full := true
		for l := range need {
			if covered[l] == 0 {
				full = false
				break
			}
		}
		if !full {
			continue
		}
		best = &Result{TotalCost: total, Covered: true}
		for i := range pool {
			if mask&(1<<i) != 0 {
				best.Selected = append(best.Selected, pool[i].c)
			}
		}
		found = true
	}
	if !found {
		return &Result{}, nil
	}
	return best, nil
}
