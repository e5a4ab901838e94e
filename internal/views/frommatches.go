package views

import (
	"fmt"
	"sort"

	"viewjoin/internal/match"
	"viewjoin/internal/tpq"
	"viewjoin/internal/xmltree"
)

// FromMatches builds the materialized view of pattern p directly from an
// already computed match set, without re-evaluating p against the
// document. This realizes the paper's observation (§IV-B, unique feature
// 2) that ViewJoin's intermediate DAG F "provides a solution for storing
// the query result as a materialized view": a query's result can be
// captured as a new LE/LEp/E/T view and used to answer later queries that
// contain the pattern.
//
// The matches must be complete (every embedding of p in d) for the
// resulting view to be a correct materialization. A subset is not a view
// of that subset under every scheme: the tuple scheme keeps exactly the
// given rows, but the list schemes keep only each node's solution nodes,
// and a join over them recombines those into every embedding they admit,
// rows not in the subset included.
func FromMatches(d *xmltree.Document, p *tpq.Pattern, ms match.Set) (*Materialized, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("views: %w", err)
	}
	for i, mm := range ms {
		if len(mm) != p.Size() {
			return nil, fmt.Errorf("views: match %d binds %d nodes for a %d-node pattern", i, len(mm), p.Size())
		}
	}
	sol := make([][]Label, p.Size())
	for q, ids := range ms.SolutionNodes(p.Size()) {
		sol[q] = make([]Label, len(ids))
		for i, id := range ids {
			n := d.Node(id)
			sol[q][i] = Label{Start: n.Start, End: n.End, Level: n.Level}
		}
	}
	m := fromSolutions(d, p, sol)

	// Cache the tuple content in composite-start order, saving the
	// re-enumeration that Matches() would otherwise perform.
	cached := append(match.Set(nil), ms...)
	sort.Slice(cached, func(i, j int) bool { return match.Less(cached[i], cached[j]) })
	m.matches = cached
	m.hasM = true
	return m, nil
}
