package server

import (
	"context"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"time"

	"viewjoin"
	"viewjoin/internal/obs"
)

// This file is the query path's stages, in the order a request meets
// them: decode, then (admitted by the edge) resolve, plan, run and encode.

// queryRequest is the body of POST /query and POST /debug/trace. It is
// decoded strictly: a field it does not name is a 400, not ignored.
type queryRequest struct {
	Document  string   `json:"document"`
	Query     string   `json:"query"`
	Engine    string   `json:"engine"`               // VJ (default), TS, PS, IJ
	Views     []string `json:"views,omitempty"`      // registered view names; default: all views of the document
	TimeoutMS int64    `json:"timeout_ms,omitempty"` // 0: server default
	// Limit bounds the match rows returned; 0 runs the full query and
	// returns the count only. A positive limit is pushed into the engine
	// (RunOptions.Limit): the run stops once the page is determined,
	// and match_count reports the page's row count, not the full result
	// cardinality.
	Limit int `json:"limit"`
	// Cursor resumes a paginated result: the opaque cursor returned by a
	// previous limited response. The run starts at the cursor position
	// (RunOptions.After: every list is opened there by binary search), so
	// a page costs what it returns however deep it is.
	Cursor string `json:"cursor,omitempty"`
}

// decodeQuery is the decode stage. The access line names the request as
// far as its body decoded, a body that did not decode too.
func (x *exchange) decodeQuery(r *http.Request, req *queryRequest) *failure {
	err := decodeQueryRequest(r.Body, req)
	x.line.Document, x.line.Query, x.line.Engine, x.line.Views = req.Document, req.Query, req.Engine, req.Views
	if err != nil {
		return failed(http.StatusBadRequest, "request", err)
	}
	return nil
}

// query runs an admitted query's stages after decode. The per-request
// deadline bounds the run; the request's own context makes a client
// disconnect cancel it too.
func (s *Server) query(ctx context.Context, req *queryRequest, traced bool, x *exchange) *failure {
	rv, f := s.resolve(req)
	if f != nil {
		return f
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		// Clamped so the product cannot wrap negative (an instant expiry).
		timeout = time.Duration(min(req.TimeoutMS, math.MaxInt64/int64(time.Millisecond))) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	// A cursor makes this a resumed run: the resumption point is pushed
	// into the engine instead of trimming a fully materialized result.
	var after []int32
	var cursorEpoch uint64
	if req.Cursor != "" {
		var err error
		if cursorEpoch, after, err = decodeCursor(req.Cursor, rv.query.NumNodes()); err != nil {
			return failed(http.StatusBadRequest, "parse", err)
		}
	}

	ent, hit, f := s.plan(req, &rv)
	// The slot was taken WaitUS after arrival; everything since is the
	// resolve and plan stages.
	x.line.PlanUS = time.Since(x.started).Microseconds() - x.line.WaitUS
	if f != nil {
		return f
	}
	// From here the request is named by its plan, as the response and
	// /debug/plans name it.
	x.line.Query, x.line.Engine, x.line.Views = ent.key.query, ent.key.engine.String(), ent.canon
	x.line.Cache = "miss"
	if hit {
		x.line.Cache = "hit"
	}
	// A cursor resumes by document position, which an update renumbers:
	// a cursor from another epoch is permanently unusable (410), the
	// client restarts its pagination.
	if req.Cursor != "" && cursorEpoch != ent.plan.Epoch() {
		return &failure{status: http.StatusGone, stage: "cursor", outcome: "stale",
			err: fmt.Errorf("cursor issued at document epoch %d, plan is at epoch %d; restart pagination",
				cursorEpoch, ent.plan.Epoch())}
	}

	// Only /debug/trace runs under a recorder: the cached plan stays
	// shared and untraced, only this execution is observed.
	var tr *obs.Recorder
	if traced {
		tr = obs.NewRecorder()
	}
	// The gate sits between deadline creation and evaluation: a test that
	// holds it past the deadline gets a deterministic expiry at the
	// engine's upfront interrupt check.
	if s.testEvalGate != nil {
		if s.testEvalStarted != nil {
			s.testEvalStarted()
		}
		<-s.testEvalGate
	}
	res, f := s.run(ctx, ent, &viewjoin.RunOptions{Limit: req.Limit, After: after, Tracer: tr}, x)
	if f != nil {
		return f
	}
	x.encode(req, ent, res)
	return nil
}

// resolved is what a request names, looked up: the document entry, the
// parsed query, the engine, and the named views both as canonical pattern
// strings (sorted, the plan-cache key) and as the registered views — or,
// for a spelling the plan cache has indexed, the entry it resolved to
// before, with query, engine and canon read off it and nothing parsed.
type resolved struct {
	doc    *docEntry
	query  *viewjoin.Query
	engine viewjoin.Engine
	canon  []string
	mviews []*viewjoin.MaterializedView
	raw    rawKey     // the request as spelled
	ent    *planEntry // the plan raw is indexed to (already counted a hit), nil when it is not
}

// resolve is the resolve stage: it looks up the document, parses the
// query, and resolves the view names (all registered views when none are
// named) and the engine. A request that names its views and is spelled as
// one that resolved before skips all of that.
func (s *Server) resolve(req *queryRequest) (resolved, *failure) {
	e := s.docs[req.Document]
	if e == nil {
		return resolved{}, failed(http.StatusNotFound, "resolve", fmt.Errorf("unknown document %q", req.Document))
	}
	raw := rawKey{doc: req.Document, query: req.Query, engine: req.Engine,
		nviews: len(req.Views), views: strings.Join(req.Views, ";")}
	if ent := s.cache.spelled(raw); ent != nil {
		return resolved{doc: e, query: ent.plan.Query(), engine: ent.plan.Engine(), canon: ent.canon, ent: ent}, nil
	}
	q, err := viewjoin.ParseQuery(req.Query)
	if err != nil {
		return resolved{}, failed(http.StatusBadRequest, "parse", err)
	}
	eng := viewjoin.EngineViewJoin
	if req.Engine != "" {
		eng, err = viewjoin.ParseEngine(req.Engine)
		if err != nil {
			return resolved{}, failed(http.StatusBadRequest, "parse", err)
		}
	}
	names := req.Views
	if len(names) == 0 {
		names = e.order
	}
	canon := make([]string, 0, len(names))
	mviews := make([]*viewjoin.MaterializedView, 0, len(names))
	for _, n := range names {
		// Accept any spelling that parses to a registered pattern.
		vq, err := viewjoin.ParseQuery(n)
		if err != nil {
			return resolved{}, failed(http.StatusBadRequest, "parse", fmt.Errorf("view %q: %w", n, err))
		}
		key := vq.String()
		ve, ok := e.views[key]
		if !ok {
			return resolved{}, failed(http.StatusNotFound, "resolve",
				fmt.Errorf("view %s not registered for document %q", key, req.Document))
		}
		canon = append(canon, key)
		mviews = append(mviews, ve.mv)
	}
	sort.Strings(canon)
	return resolved{doc: e, query: q, engine: eng, canon: canon, mviews: mviews, raw: raw}, nil
}

// plan is the plan stage: it returns the cache entry (plan plus its
// per-plan aggregate) for the request, preparing and inserting on a miss.
// The bool reports whether this was a cache hit. Plans are always prepared
// with nil options (no tracer), which is what makes them shareable across
// concurrent requests; per-request tracing attaches through
// RunOptions.Tracer instead.
func (s *Server) plan(req *queryRequest, rv *resolved) (*planEntry, bool, *failure) {
	if rv.ent != nil {
		return rv.ent, true, nil
	}
	key := planKey{doc: req.Document, query: rv.query.String(), engine: rv.engine, views: strings.Join(rv.canon, ";")}
	if ent := s.cache.get(key, rv.raw); ent != nil {
		return ent, true, nil
	}
	// Prepare and insert under the document's publication lock: an update
	// commits either before the Prepare (which then binds the new epoch) or
	// after the insert (which its invalidation then drops).
	rv.doc.pub.RLock()
	defer rv.doc.pub.RUnlock()
	p, err := viewjoin.Prepare(rv.doc.doc, rv.query, rv.mviews, rv.engine, nil)
	if err != nil {
		return nil, false, planFailure("prepare", err)
	}
	s.prepares.Add(1)
	return s.cache.put(key, rv.raw, rv.canon, p), false, nil
}

// run is the run stage: the cached plan executed once with this request's
// options, its outcome folded into the plan's aggregate and the server's
// histograms.
func (s *Server) run(ctx context.Context, ent *planEntry, opts *viewjoin.RunOptions, x *exchange) (*viewjoin.Result, *failure) {
	x.ran = true
	res, err := ent.plan.RunWith(ctx, opts)
	if err != nil {
		ent.agg.AddError()
		return nil, planFailure("evaluate", err)
	}
	s.observe(ent.key.engine, res.Stats)
	ent.agg.AddRun(res.Stats.Counters, res.Stats.Duration)
	x.line.Matches = len(res.Matches)
	x.line.RunUS, x.line.FirstMatchUS = res.Stats.Duration.Microseconds(), res.Stats.FirstMatchNanos/1000
	return res, nil
}

// encode is the encode stage: the response body of a successful run,
// written by finish. It embeds the run's report, which only a
// /debug/trace run has.
func (x *exchange) encode(req *queryRequest, ent *planEntry, res *viewjoin.Result) {
	x.query = queryResponse{
		responseHead: responseHead{
			Schema:     ResponseSchema,
			Document:   req.Document,
			Query:      ent.key.query, // rendered once, when the plan was cached
			Engine:     ent.key.engine.String(),
			Views:      ent.canon,
			Cache:      x.line.Cache,
			MatchCount: len(res.Matches),
		},
		responseTail: responseTail{Stats: res.Stats, Trace: res.Trace},
	}
	if req.Limit > 0 {
		// The paged run already bounded the result to the page, so its
		// rows go to the wire as they are. A completely filled page may
		// have more matches after it; hand back the resumption cursor. A
		// short page is the last one.
		x.query.Matches, x.query.cells = res.Matches, ent.cells
		if n := len(res.Matches); n == req.Limit {
			x.query.Cursor = encodeCursor(ent.plan.Epoch(), res.Matches[n-1])
		}
	}
}

// encodeCursor renders a result row as an opaque resumption cursor: the
// document epoch the page was served at, then the row's start labels (one
// per query node, the row's document position), base64-encoded
// little-endian. A follow-up run with this cursor resumes strictly after
// the row — but only at the same epoch: positions are not comparable
// across updates, so a stale cursor is rejected with 410 Gone instead of
// silently skipping or repeating rows.
func encodeCursor(epoch uint64, row []viewjoin.Node) string {
	buf := make([]byte, 8+4*len(row))
	binary.LittleEndian.PutUint64(buf, epoch)
	for i, n := range row {
		binary.LittleEndian.PutUint32(buf[8+4*i:], uint32(n.Start))
	}
	return base64.RawURLEncoding.EncodeToString(buf)
}

// decodeCursor parses a request cursor into the epoch it was issued at and
// the per-query-node start labels RunOptions.After seeks past; n is the query's
// node count.
func decodeCursor(s string, n int) (uint64, []int32, error) {
	buf, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return 0, nil, fmt.Errorf("invalid cursor: %w", err)
	}
	if len(buf) != 8+4*n {
		return 0, nil, fmt.Errorf("invalid cursor: %d bytes for a %d-node query", len(buf), n)
	}
	epoch := binary.LittleEndian.Uint64(buf)
	after := make([]int32, n)
	for i := range after {
		after[i] = int32(binary.LittleEndian.Uint32(buf[8+4*i:]))
	}
	return epoch, after, nil
}
