package viewjoin

import (
	"context"
	"fmt"
	"time"

	"viewjoin/internal/engine/pathstack"
	"viewjoin/internal/engine/twigstack"
	"viewjoin/internal/obs"
	"viewjoin/internal/store"
	"viewjoin/internal/tpq"
	"viewjoin/internal/views"
	"viewjoin/internal/xmltree"
)

// ParseQueryGeneral parses a TPQ that may repeat element types (e.g.
// "//section//figure//section"), the general query class the paper defers
// to [5]. General queries cannot be answered through the view machinery
// (which assumes unique types, §II) but evaluate directly over raw element
// streams with EvaluateWithoutViews and EvaluateDirect.
func ParseQueryGeneral(s string) (*Query, error) {
	p, err := tpq.ParseGeneral(s)
	if err != nil {
		return nil, err
	}
	return &Query{p}, nil
}

// EvaluateWithoutViews answers q over raw per-type element streams — the
// conventional structural/twig join setting without materialized views
// (the element storage scheme over single-element "views", §I). This is
// the baseline the original InterJoin work [22] compared against, and the
// only evaluation path for general queries with repeated element types:
// duplicate query nodes simply open independent cursors over the same
// type's stream.
//
// Supported engines: EngineTwigStack (any query) and EnginePathStack (path
// queries). The view-based engines require materialized views by
// definition.
func EvaluateWithoutViews(ctx context.Context, d *Document, q *Query, eng Engine, ro *RunOptions) (*Result, error) {
	snap := d.snap()
	r := resolve(ctx, ro)
	r.Tracer.BeginPhase(obs.PhaseBind)
	lists, err := rawStreams(snap.tree, q)
	r.Tracer.EndPhase(obs.PhaseBind)
	if err != nil {
		return nil, err
	}
	// A plan over the raw streams is a prepared query like any other, run
	// once through the same executor; Stats.Duration covers the evaluation
	// alone, as Evaluate's does not cover materializing views.
	p := &PreparedQuery{epoch: snap.epoch, q: q, eng: eng}
	switch eng {
	case EngineTwigStack:
		p.plan = twigstack.Prepare(q.p, lists)
	case EnginePathStack:
		p.plan, err = pathstack.Prepare(q.p, lists)
	default:
		err = fmt.Errorf("viewjoin: engine %v requires materialized views; use TS or PS without views", eng)
	}
	if err != nil {
		return nil, err
	}
	p.resume = resumePrefix(q.p.Nodes, onlyEntry(lists))
	p.describe = func() *obs.Plan { return rawStreamPlan(q.p, eng, lists) }
	r.start = time.Now()
	return p.execute(r)
}

// rawStreamPlan describes the no-view setting: every query node reads the
// raw element stream of its type (the element scheme over single-element
// views).
func rawStreamPlan(q *tpq.Pattern, eng Engine, lists []*store.ListFile) *obs.Plan {
	p := basePlan(q, eng, nil, nil)
	p.Scheme = store.Element.String()
	seen := make(map[string]bool)
	for qi := range q.Nodes {
		if l := q.Nodes[qi].Label; !seen[l] {
			seen[l] = true
			p.Views = append(p.Views, "//"+l)
		}
		p.Nodes[qi].ListEntries = lists[qi].Entries()
	}
	return p
}

// rawStreams builds one element-scheme list per distinct element type of q
// (all nodes of that type, in document order) and binds every query node —
// including duplicates — to its type's list.
func rawStreams(t *xmltree.Document, q *Query) ([]*store.ListFile, error) {
	byLabel := make(map[string]*store.ListFile)
	lists := make([]*store.ListFile, q.p.Size())
	for qi := range q.p.Nodes {
		label := q.p.Nodes[qi].Label
		lf, ok := byLabel[label]
		if !ok {
			single := &tpq.Pattern{Nodes: []tpq.Node{{Label: label, Axis: tpq.Descendant, Parent: -1}}}
			mat, err := views.Materialize(t, single)
			if err != nil {
				return nil, err
			}
			st, err := store.Build(mat, store.Element, 0)
			if err != nil {
				return nil, err
			}
			lf = st.Lists[0]
			byLabel[label] = lf
		}
		lists[qi] = lf
	}
	return lists, nil
}
