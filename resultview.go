package viewjoin

import (
	"fmt"

	"viewjoin/internal/match"
	"viewjoin/internal/store"
	"viewjoin/internal/views"
)

// MaterializeResult captures a query's already computed result as a new
// materialized view in the given scheme, without re-evaluating the query —
// the paper's observation (§IV-B) that ViewJoin's intermediate DAG doubles
// as a materialized view of the result. The returned view can cover any
// later query that q is a subpattern of.
//
// The result must come from evaluating q over this document (the complete
// match set). A partial result is a view of that subset under SchemeTuple
// only, which keeps the given rows. The list schemes keep each query
// node's solution nodes, and a join over them answers every embedding
// those nodes admit: over <r><a><b/><a><b/></a></a></r>, an LE view of
// two of //a//b's three rows that bind both a's and both b's answers all
// three.
func (d *Document) MaterializeResult(q *Query, res *Result, scheme StorageScheme, opts *MaterializeOptions) (*MaterializedView, error) {
	snap := d.snap()
	ms, err := match.FromRows(snap.tree, res.Matches, q.p.Size())
	if err != nil {
		return nil, fmt.Errorf("viewjoin: %w", err)
	}
	mat, err := views.FromMatches(snap.tree, q.p, ms)
	if err != nil {
		return nil, err
	}
	pageSize := 0
	if opts != nil {
		pageSize = opts.PageSize
	}
	st, err := store.Build(mat, scheme.kind(), pageSize)
	if err != nil {
		return nil, err
	}
	return newView(d, snap, q.p, st), nil
}
