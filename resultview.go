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
// match set); passing a partial result materializes only that subset.
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
