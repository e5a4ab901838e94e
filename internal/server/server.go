// Package server implements the vjserve HTTP daemon: a registry of
// documents and materialized views loaded at startup, a bounded LRU cache
// of prepared query plans, and a JSON query API with per-request
// deadlines, admission control, and an observability surface.
//
// The serving model follows the paper's cost split directly: everything
// §V charges once per plan (view-set validation, view-segmented query
// construction, list binding, InterJoin's view scans) is paid at Prepare
// time and amortized across requests through the plan cache, while each
// request pays only the per-execution costs (cursor movement, structural
// joins, enumeration) via PreparedQuery.RunWith on pooled scratch.
package server

import (
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"viewjoin"
	"viewjoin/internal/counters"
	"viewjoin/internal/obs"
)

// Schema identifiers of the JSON documents the server emits. Query
// responses and access-log lines embed trace reports in the existing
// viewjoin/trace/v1 schema.
const (
	ResponseSchema = "viewjoin/serve/v1"
	MetricsSchema  = "viewjoin/metrics/v1"
	AccessSchema   = "viewjoin/access/v1"
	PlansSchema    = "viewjoin/plans/v1"
)

// Config tunes a Server. The zero value is usable: every field has a
// serving-appropriate default. Nothing here decides how views are held:
// in-memory views live on the heap, view files are mapped (registry.go).
type Config struct {
	// CacheSize bounds the plan cache (prepared plans, LRU). Default 128.
	CacheSize int
	// Workers bounds concurrent query evaluations. Default 4.
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a worker
	// slot before new arrivals are shed with 429. 0 means shed whenever all
	// workers are busy; negative means an unbounded queue.
	QueueDepth int
	// DefaultTimeout bounds requests that do not carry their own
	// timeout_ms. Default 10s.
	DefaultTimeout time.Duration
	// MaxParallel caps the per-request "parallel" knob: a request may ask
	// for up to this many range partitions (RunOptions.Parallelism);
	// higher asks are clamped silently. The default 1 disables parallel
	// evaluation — each request then costs exactly one worker's CPU, which
	// is what the Workers bound assumes.
	MaxParallel int
	// AccessLog, when non-nil, receives one JSON line (schema
	// viewjoin/access/v1) per query request.
	AccessLog io.Writer
	// SlowlogSize enables the slow-query flight recorder: the server
	// retains full traces of the N slowest and the N most recent requests,
	// served at GET /debug/slowlog. 0 (the default) disables the recorder
	// — and with it the per-request tracing it requires, keeping the
	// serving hot path allocation-free.
	SlowlogSize int
	// SlowlogThreshold admits a request to the slow set only when its wall
	// time (admission to response) meets it; the recent ring receives every
	// request regardless. 0 makes every request eligible.
	SlowlogThreshold time.Duration
}

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxParallel <= 0 {
		c.MaxParallel = 1
	}
	return c
}

// docEntry is one registered document with its named views. Views are
// keyed by the canonical rendering of their pattern.
type docEntry struct {
	doc   *viewjoin.Document
	views map[string]*viewEntry
	order []string // registration order, for /documents listings
	// wmu serializes the document's write path: one /update at a time per
	// document derives the successor tree and every view's successor.
	// Reads never take it — they run against immutable snapshots.
	wmu sync.Mutex
	// pub makes an update's publication atomic to plan building: the
	// commit holds it for the pointer swaps and the plan invalidation, a
	// cache miss holds it shared from Prepare to the cache insert.
	pub sync.RWMutex
}

// Server is the shared state of the daemon. All fields are safe for
// concurrent use once serving starts; documents and views are registered
// before the listener is opened and immutable afterwards. View stores are
// flat page-aligned buffers read through per-request cursors, so every
// worker evaluates off the same immutable segments — no per-request copy
// or decode of view data.
type Server struct {
	cfg   Config
	docs  map[string]*docEntry // document name -> entry
	cache *planCache

	sem    chan struct{} // worker slots
	queued atomic.Int64  // admitted requests waiting for a slot

	mu       sync.Mutex // guards draining + wg.Add pairing
	draining bool
	wg       sync.WaitGroup

	prepares atomic.Int64 // plans built (misses that did the Prepare work)
	requests atomic.Int64
	shed     atomic.Int64
	timeouts atomic.Int64
	canceled atomic.Int64 // client cancellations (disconnects), distinct from deadline expiry
	failures atomic.Int64
	inFlight atomic.Int64

	updates           atomic.Int64 // document updates applied via /update
	maintains         atomic.Int64 // view maintenance operations performed
	fastPaths         atomic.Int64 // maintains that took the pure label-splice fast path
	planInvalidations atomic.Int64 // cached plans dropped by updates
	applyUS           atomic.Int64 // summed time deriving successor trees
	maintainUS        atomic.Int64 // summed time deriving successor view stores
	recomputed        atomic.Int64 // summed list records recomputed by maintenance

	start   time.Time // serving start, for uptime reporting
	slowlog *slowlog  // nil when Config.SlowlogSize is 0

	histMu     sync.Mutex
	latency    map[string]*obs.Histogram // engine name -> run latency (µs)
	partitions obs.Histogram             // partitions per successful run

	logMu sync.Mutex

	// testEvalGate, when non-nil, is received from while holding a worker
	// slot, before evaluation; testEvalStarted is called just before the
	// receive. Tests use the pair to hold a worker busy deterministically.
	testEvalGate    chan struct{}
	testEvalStarted func()
	// testFailMaintain, when non-nil, is asked before each view's
	// derivation in /update; a non-nil error fails the transaction there.
	testFailMaintain func(view string) error
}

// New builds a Server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		docs:    make(map[string]*docEntry),
		cache:   newPlanCache(cfg.CacheSize),
		sem:     make(chan struct{}, cfg.Workers),
		latency: make(map[string]*obs.Histogram),
		start:   time.Now(),
	}
	if cfg.SlowlogSize > 0 {
		s.slowlog = newSlowlog(cfg.SlowlogSize, cfg.SlowlogThreshold)
	}
	return s
}

// Handler returns the HTTP handler serving the full API surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/update", s.handleUpdate)
	mux.HandleFunc("/debug/trace", s.handleTrace)
	mux.HandleFunc("/debug/slowlog", s.handleSlowlog)
	mux.HandleFunc("/debug/plans", s.handlePlans)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/documents", s.handleDocuments)
	return mux
}

// Drain puts the server into draining mode — new query requests are
// rejected with 503 — and blocks until every in-flight request has
// finished. It is the SIGTERM path of cmd/vjserve.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.wg.Wait()
}

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
	Cursor   string `json:"cursor,omitempty"`
	Parallel int    `json:"parallel,omitempty"` // range partitions; clamped to the server's MaxParallel; <=1: sequential
}

type statsJSON struct {
	ElementsScanned int64 `json:"elements_scanned"`
	Comparisons     int64 `json:"comparisons"`
	PointerDerefs   int64 `json:"pointer_derefs"`
	PagesRead       int64 `json:"pages_read"`
	PagesWritten    int64 `json:"pages_written"`
	JumpsTaken      int64 `json:"jumps_taken"`
	JumpsRefused    int64 `json:"jumps_refused"`
	PeakMemoryBytes int64 `json:"peak_memory_bytes"`
	// FirstMatchUS is the run's time-to-first-match in microseconds; 0
	// when the run produced no match.
	FirstMatchUS int64 `json:"first_match_us"`
	Partitions   int   `json:"partitions"`
}

func statsOf(st viewjoin.Stats) statsJSON {
	return statsJSON{
		ElementsScanned: st.ElementsScanned,
		Comparisons:     st.Comparisons,
		PointerDerefs:   st.PointerDerefs,
		PagesRead:       st.PagesRead,
		PagesWritten:    st.PagesWritten,
		JumpsTaken:      st.JumpsTaken,
		JumpsRefused:    st.JumpsRefused,
		PeakMemoryBytes: st.PeakMemoryBytes,
		FirstMatchUS:    st.FirstMatchNanos / 1000,
		Partitions:      st.Partitions,
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

// countersOf lifts the public per-run Stats back into the internal counter
// record an obs.Aggregate folds, so per-plan aggregation works off the
// deterministic counters every untraced run already produces.
func countersOf(st viewjoin.Stats) counters.Counters {
	return counters.Counters{
		ElementsScanned: st.ElementsScanned,
		Comparisons:     st.Comparisons,
		PointerDerefs:   st.PointerDerefs,
		PagesRead:       st.PagesRead,
		PagesWritten:    st.PagesWritten,
		JumpsTaken:      st.JumpsTaken,
		JumpsRefused:    st.JumpsRefused,
	}
}

// errorResponse is the body of every failed request: the stage that
// failed, the error text, and — for timeouts — an explicit statement that
// no partial results were produced (aborted evaluations return nothing).
type errorResponse struct {
	Stage   string `json:"stage"`
	Error   string `json:"error"`
	Partial bool   `json:"partial"`
	Timeout bool   `json:"timeout,omitempty"`
}

func writeError(w http.ResponseWriter, status int, stage string, err error, timeout bool) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Stage: stage, Error: err.Error(), Timeout: timeout})
}

// admit performs admission control: reject while draining, shed when the
// worker queue is full, otherwise block for a worker slot. On success it
// returns a release func and stage ""; on failure, a status and stage.
func (s *Server) admit() (release func(), status int, stage string, err error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, http.StatusServiceUnavailable, "admission", errors.New("server is draining")
	}
	s.wg.Add(1)
	s.mu.Unlock()

	acquired := false
	select {
	case s.sem <- struct{}{}:
		acquired = true
	default:
	}
	if !acquired {
		if s.cfg.QueueDepth >= 0 {
			if q := s.queued.Add(1); q > int64(s.cfg.QueueDepth) {
				s.queued.Add(-1)
				s.wg.Done()
				s.shed.Add(1)
				return nil, http.StatusTooManyRequests, "admission",
					fmt.Errorf("queue full (%d workers busy, %d queued)", s.cfg.Workers, s.cfg.QueueDepth)
			}
			s.sem <- struct{}{}
			s.queued.Add(-1)
		} else {
			s.sem <- struct{}{}
		}
	}
	s.inFlight.Add(1)
	return func() {
		s.inFlight.Add(-1)
		<-s.sem
		s.wg.Done()
	}, 0, "", nil
}

// admissionOutcome names a refusal by admit in the access log.
func admissionOutcome(status int) string {
	if status == http.StatusServiceUnavailable {
		return "drain"
	}
	return "shed"
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

// failure is how a request ended short of a result: the HTTP status, the
// stage that failed, and the access-log outcome.
type failure struct {
	status  int
	stage   string
	outcome string
	timeout bool
	err     error
}

// failed is a failure with the plain "error" outcome.
func failed(status int, stage string, err error) *failure {
	return &failure{status: status, stage: stage, outcome: "error", err: err}
}

// planFailure maps an error of the plan — from Prepare (stage "prepare")
// or from a run (stage "evaluate") — to its HTTP shape: a fault under a
// view file's mapping is 500 at stage "load"; a *CanceledError from a
// deadline is 504 with partial=false and timeout=true, one from a client
// disconnect is 499 with outcome "canceled"; anything else is a 422 at the
// given stage.
func planFailure(stage string, err error) *failure {
	f := failed(http.StatusUnprocessableEntity, stage, err)
	var vf *viewjoin.ViewFaultError
	var ce *viewjoin.CanceledError
	switch {
	case errors.As(err, &vf):
		f.status, f.stage = http.StatusInternalServerError, "load"
	case errors.As(err, &ce) && errors.Is(err, context.Canceled):
		f.status, f.outcome = statusClientClosedRequest, "canceled"
	case errors.As(err, &ce):
		f.status, f.outcome, f.timeout = http.StatusGatewayTimeout, "timeout", true
	}
	return f
}

// resolve looks up the document, parses the query, and resolves the view names (all registered views when none
// are named) and the engine. A request that names its views and is spelled
// as one that resolved before skips all of that.
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

// plan returns a cache entry (plan plus its per-plan aggregate) for the
// request, preparing and inserting on a miss. The bool reports whether
// this was a cache hit. Plans are always prepared with nil options (no
// tracer), which is what makes them shareable across concurrent requests;
// per-request tracing attaches through RunOptions.Tracer instead.
func (s *Server) plan(req *queryRequest, rv *resolved) (*planEntry, bool, error) {
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
		return nil, false, err
	}
	s.prepares.Add(1)
	return s.cache.put(key, rv.raw, rv.canon, p), false, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.serveQuery(w, r, false)
}

// handleTrace is POST /query with tracing: the same cached plan, run under
// this request's own obs.Recorder, with the viewjoin/trace/v1 report of
// the run embedded in the response.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.serveQuery(w, r, true)
}

func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, traced bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "request", errors.New("POST required"), false)
		return
	}
	s.requests.Add(1)
	started := time.Now()
	var req queryRequest
	if err := decodeQueryRequest(r.Body, &req); err != nil {
		s.reject(w, nil, started, "", failed(http.StatusBadRequest, "request", err))
		return
	}

	release, status, stage, err := s.admit()
	if err != nil {
		s.reject(w, &req, started, "", &failure{status: status, stage: stage, outcome: admissionOutcome(status), err: err})
		return
	}
	defer release()

	rv, f := s.resolve(&req)
	if f != nil {
		s.reject(w, &req, started, "", f)
		return
	}
	q, eng, canon := rv.query, rv.engine, rv.canon

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		// Clamped so the product cannot wrap negative (an instant expiry).
		timeout = time.Duration(min(req.TimeoutMS, math.MaxInt64/int64(time.Millisecond))) * time.Millisecond
	}
	// The HTTP request's context, so a client disconnect cancels the run
	// too, bounded by the request's deadline.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// The gate sits between deadline creation and evaluation: a test that
	// holds it past the deadline gets a deterministic expiry at the
	// engine's upfront interrupt check.
	if s.testEvalGate != nil {
		if s.testEvalStarted != nil {
			s.testEvalStarted()
		}
		<-s.testEvalGate
	}

	// The per-request parallelism ask, clamped to the server cap; 1 is the
	// sequential path, which a partitioned run degrades to anyway when the
	// plan yields no cuts, so the clamp only bounds worst-case goroutines.
	k := max(1, min(req.Parallel, s.cfg.MaxParallel))

	// A positive limit or a cursor makes this a paged run: the bound and
	// resumption point are pushed into the engine instead of trimming a
	// fully materialized result.
	var after []int32
	var cursorEpoch uint64
	if req.Cursor != "" {
		cursorEpoch, after, err = decodeCursor(req.Cursor, q.NumNodes())
		if err != nil {
			s.reject(w, &req, started, "", failed(http.StatusBadRequest, "parse", err))
			return
		}
	}
	// With the flight recorder enabled, every request runs under its own
	// obs.Recorder — the cached plan stays shared and untraced, only this
	// execution is observed. The threshold is applied after the run (a
	// query is only known to be slow once it finished), so the recorder
	// must always be on to have the trace when it matters.
	var tr *obs.Recorder
	if traced || s.slowlog != nil {
		tr = obs.NewRecorder()
	}

	ent, hit, err := s.plan(&req, &rv)
	if err != nil {
		s.reject(w, &req, started, "", planFailure("prepare", err))
		return
	}
	plan := ent.plan
	cacheState := "miss"
	if hit {
		cacheState = "hit"
	}
	// A cursor resumes by document position, which an update renumbers:
	// a cursor from another epoch is permanently unusable (410), the
	// client restarts its pagination.
	if req.Cursor != "" && cursorEpoch != plan.Epoch() {
		err = fmt.Errorf("cursor issued at document epoch %d, plan is at epoch %d; restart pagination",
			cursorEpoch, plan.Epoch())
		s.reject(w, &req, started, cacheState, &failure{status: http.StatusGone, stage: "cursor", outcome: "stale", err: err})
		return
	}
	// Every plan is prepared with nil options, so the one entry point
	// covers every request shape: no limit and no cursor is the full run.
	res, err := plan.RunWith(ctx, &viewjoin.RunOptions{Limit: req.Limit, After: after, Parallelism: k, Tracer: tr})
	if err != nil {
		s.fail(w, &req, ent, cacheState, started, err)
		return
	}

	s.observeLatency(eng, res.Stats.Duration)
	s.observePartitions(res.Stats.Partitions)
	cs := countersOf(res.Stats)
	cs.Matches = int64(len(res.Matches))
	ent.agg.AddRun(cs, res.Stats.Duration)
	resp := queryResponse{
		responseHead: responseHead{
			Schema:     ResponseSchema,
			Document:   req.Document,
			Query:      ent.key.query, // rendered once, when the plan was cached
			Engine:     eng.String(),
			Views:      canon,
			Cache:      cacheState,
			MatchCount: len(res.Matches),
		},
		responseTail: responseTail{
			Stats:      statsOf(res.Stats),
			DurationUS: res.Stats.Duration.Microseconds(),
		},
	}
	if traced {
		// Only the explicit /debug/trace surface embeds the report; the
		// recorder a slowlog-enabled /query runs under feeds the flight
		// recorder, not the response body.
		resp.Trace = res.Trace
	}
	if s.slowlog != nil {
		s.slowlog.observe(slowlogEntry{
			Time:         time.Now().UTC().Format(time.RFC3339Nano),
			Document:     req.Document,
			Query:        ent.key.query,
			Engine:       eng.String(),
			Views:        canon,
			Status:       http.StatusOK,
			Outcome:      "ok",
			Cache:        cacheState,
			Matches:      len(res.Matches),
			Partitions:   res.Stats.Partitions,
			WallUS:       time.Since(started).Microseconds(),
			RunUS:        res.Stats.Duration.Microseconds(),
			FirstMatchUS: res.Stats.FirstMatchNanos / 1000,
			Trace:        res.Trace,
		})
	}
	if req.Limit > 0 {
		// The paged run already bounded the result to the page, so its
		// rows go to the wire as they are. A completely filled page may
		// have more matches after it; hand back the resumption cursor. A
		// short page is the last one.
		resp.Matches, resp.cells = res.Matches, ent.cells
		if n := len(res.Matches); n == req.Limit {
			resp.Cursor = encodeCursor(plan.Epoch(), res.Matches[n-1])
		}
	}
	s.logAccess(&req, http.StatusOK, "", len(res.Matches), cacheState, res.Stats.Partitions, "ok", time.Since(started), nil)
	resp.write(w)
}

// statusClientClosedRequest is the nginx-convention status for a request
// aborted by its client; Go's net/http has no name for it.
const statusClientClosedRequest = 499

// fail ends a request whose run failed (planFailure has the statuses). The
// failure is folded into the plan's aggregate and, when the flight
// recorder is on, retained there — an aborted run has no trace, but the
// plan identity and wall time are exactly what a slow-query post-mortem
// needs. The entry names the plan as a successful run's entry does, so it
// joins the plan's /debug/plans row.
func (s *Server) fail(w http.ResponseWriter, req *queryRequest, ent *planEntry,
	cacheState string, started time.Time, err error) {
	f := planFailure("evaluate", err)
	ent.agg.AddError()
	if s.slowlog != nil {
		s.slowlog.observe(slowlogEntry{
			Time:     time.Now().UTC().Format(time.RFC3339Nano),
			Document: req.Document,
			Query:    ent.key.query,
			Engine:   ent.key.engine.String(),
			Views:    ent.canon,
			Status:   f.status,
			Outcome:  f.outcome,
			Cache:    cacheState,
			WallUS:   time.Since(started).Microseconds(),
			Error:    err.Error(),
		})
	}
	s.reject(w, req, started, cacheState, f)
}

// reject ends a request without a result, the one way every failure exit
// does: the counter its outcome belongs to is bumped (admission control has
// already counted what it shed), the access line written (req is nil for a
// body that never decoded — there is no request to log) and the error body
// sent.
func (s *Server) reject(w http.ResponseWriter, req *queryRequest, started time.Time, cacheState string, f *failure) {
	switch f.outcome {
	case "timeout":
		s.timeouts.Add(1)
	case "canceled":
		s.canceled.Add(1)
	case "shed", "drain":
	default:
		s.failures.Add(1)
	}
	if req != nil {
		s.logAccess(req, f.status, f.stage, 0, cacheState, 0, f.outcome, time.Since(started), f.err)
	}
	writeError(w, f.status, f.stage, f.err, f.timeout)
}

// observeLatency records one run duration in the per-engine histogram
// (microseconds; power-of-two buckets shared with the trace reports).
func (s *Server) observeLatency(eng viewjoin.Engine, d time.Duration) {
	s.histMu.Lock()
	h := s.latency[eng.String()]
	if h == nil {
		h = &obs.Histogram{}
		s.latency[eng.String()] = h
	}
	h.Add(d.Microseconds())
	s.histMu.Unlock()
}

// observePartitions records how many range partitions a successful run
// executed (1 for sequential), building the distribution /metrics reports.
func (s *Server) observePartitions(n int) {
	s.histMu.Lock()
	s.partitions.Add(int64(n))
	s.histMu.Unlock()
}

// accessLine is one viewjoin/access/v1 log record. Outcome classifies how
// the request ended (ok, timeout, canceled, shed, drain, error) and
// Partitions records how many range partitions the run executed, so a log
// scan can separate deadline expiries from client disconnects and see
// which requests actually went parallel.
type accessLine struct {
	Schema     string   `json:"schema"`
	Time       string   `json:"time"`
	Document   string   `json:"document"`
	Query      string   `json:"query"`
	Engine     string   `json:"engine"`
	Views      []string `json:"views,omitempty"`
	Status     int      `json:"status"`
	Stage      string   `json:"stage,omitempty"`
	Cache      string   `json:"cache,omitempty"`
	Outcome    string   `json:"outcome"`
	Matches    int      `json:"matches"`
	Partitions int      `json:"partitions,omitempty"`
	DurationUS int64    `json:"duration_us"`
	Error      string   `json:"error,omitempty"`
	// /update lines only: the operation, the transaction's two layers, and
	// the piece counts of the snapshot it published and of its views'
	// largest list (the successor of a full table pays the write-out, in
	// apply_us or maintain_us, and starts again at a few pieces).
	Op                string `json:"op,omitempty"`
	ApplyUS           int64  `json:"apply_us,omitempty"`
	MaintainUS        int64  `json:"maintain_us,omitempty"`
	RecomputedEntries int    `json:"recomputed_entries,omitempty"`
	DocPieces         int    `json:"doc_pieces,omitempty"`
	ViewPieces        int    `json:"view_pieces,omitempty"`
}

func (s *Server) logAccess(req *queryRequest, status int, stage string, matches int, cache string,
	partitions int, outcome string, d time.Duration, err error) {
	if s.cfg.AccessLog == nil {
		return
	}
	line := accessLine{
		Document:   req.Document,
		Query:      req.Query,
		Engine:     req.Engine,
		Views:      req.Views,
		Status:     status,
		Stage:      stage,
		Cache:      cache,
		Outcome:    outcome,
		Matches:    matches,
		Partitions: partitions,
	}
	if err != nil {
		line.Error = err.Error()
	}
	s.logLine(line, d)
}

// logLine stamps and writes one access record.
func (s *Server) logLine(line accessLine, d time.Duration) {
	if s.cfg.AccessLog == nil {
		return
	}
	line.Schema = AccessSchema
	line.Time = time.Now().UTC().Format(time.RFC3339Nano)
	line.DurationUS = d.Microseconds()
	buf, merr := json.Marshal(line)
	if merr != nil {
		return
	}
	s.logMu.Lock()
	s.cfg.AccessLog.Write(append(buf, '\n'))
	s.logMu.Unlock()
}

// metricsResponse is the body of GET /metrics.
type metricsResponse struct {
	Schema     string              `json:"schema"`
	UptimeMS   int64               `json:"uptime_ms"`
	PlanCache  planCacheMetrics    `json:"plan_cache"`
	Requests   requestMetrics      `json:"requests"`
	Updates    updateMetrics       `json:"updates"` // write path (/update + maintenance)
	Views      viewMetrics         `json:"views"`   // registered views, from files and from memory
	LatencyUS  map[string]histJSON `json:"latency_us"`
	Partitions histJSON            `json:"partitions"` // partitions per successful run
	Documents  int                 `json:"documents"`
}

type planCacheMetrics struct {
	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	Evictions      int64 `json:"evictions"`
	Prepares       int64 `json:"prepares"`
	Size           int   `json:"size"`
	Capacity       int   `json:"capacity"`
	FootprintBytes int64 `json:"footprint_bytes"` // estimated resident bytes of cached plans
}

type requestMetrics struct {
	Total    int64 `json:"total"`
	Shed     int64 `json:"shed"`
	Timeouts int64 `json:"timeouts"`
	Canceled int64 `json:"canceled"`
	Failures int64 `json:"failures"`
	InFlight int64 `json:"in_flight"`
	Queued   int64 `json:"queued"`
	Draining bool  `json:"draining"`
}

// updateMetrics is the write-path block of GET /metrics: updates applied,
// view maintenance operations, how often maintenance took the fast path
// (pure label splice), and the transactions' two layers summed — time
// deriving trees, time deriving view stores — with the list records the
// latter recomputed.
type updateMetrics struct {
	Total             int64 `json:"total"`
	Maintains         int64 `json:"maintains"`
	FastPath          int64 `json:"fast_path"`
	PlanInvalidations int64 `json:"plan_invalidations"`
	ApplyUS           int64 `json:"apply_us"`
	MaintainUS        int64 `json:"maintain_us"`
	RecomputedEntries int64 `json:"recomputed_entries"`
}

// histJSON summarizes a latency histogram as quantile estimates rather
// than raw bucket dumps: p50/p95/p99/p999 interpolated from the
// power-of-two buckets (within one bucket of exact, clamped to the
// observed maximum).
type histJSON struct {
	N      int64 `json:"n"`
	SumUS  int64 `json:"sum_us"`
	MaxUS  int64 `json:"max_us"`
	P50US  int64 `json:"p50_us"`
	P95US  int64 `json:"p95_us"`
	P99US  int64 `json:"p99_us"`
	P999US int64 `json:"p999_us"`
}

func histOf(h *obs.Histogram) histJSON {
	return histJSON{
		N: h.N, SumUS: h.Sum, MaxUS: h.Max,
		P50US:  h.Quantile(0.50),
		P95US:  h.Quantile(0.95),
		P99US:  h.Quantile(0.99),
		P999US: h.Quantile(0.999),
	}
}

// planMetrics is one row of the per-plan table: the plan identity plus
// the aggregate of every run it has served since entering the cache.
type planMetrics struct {
	Document        string   `json:"document"`
	Query           string   `json:"query"`
	Engine          string   `json:"engine"`
	Views           string   `json:"views"`
	Runs            int64    `json:"runs"`
	Errors          int64    `json:"errors"`
	LatencyUS       histJSON `json:"latency_us"`
	JumpRefusedRate float64  `json:"jump_refused_rate"`
	FootprintBytes  int64    `json:"footprint_bytes"`
}

// planRow is one entry's row of the per-plan table, from a snapshot of its
// aggregate.
func planRow(ent *planEntry, snap obs.AggregateSnapshot) planMetrics {
	return planMetrics{
		Document:        ent.key.doc,
		Query:           ent.key.query,
		Engine:          ent.key.engine.String(),
		Views:           ent.key.views,
		Runs:            snap.Runs,
		Errors:          snap.Errors,
		LatencyUS:       histOf(&snap.LatencyUS),
		JumpRefusedRate: snap.JumpRefusedRate(),
		FootprintBytes:  ent.footprint,
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	hits, misses, evictions, size, footprint := s.cache.stats()
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	resp := metricsResponse{
		Schema:   MetricsSchema,
		UptimeMS: time.Since(s.start).Milliseconds(),
		PlanCache: planCacheMetrics{
			Hits: hits, Misses: misses, Evictions: evictions,
			Prepares: s.prepares.Load(), Size: size, Capacity: s.cfg.CacheSize,
			FootprintBytes: footprint,
		},
		Requests: requestMetrics{
			Total:    s.requests.Load(),
			Shed:     s.shed.Load(),
			Timeouts: s.timeouts.Load(),
			Canceled: s.canceled.Load(),
			Failures: s.failures.Load(),
			InFlight: s.inFlight.Load(),
			Queued:   s.queued.Load(),
			Draining: draining,
		},
		Updates: updateMetrics{
			Total:             s.updates.Load(),
			Maintains:         s.maintains.Load(),
			FastPath:          s.fastPaths.Load(),
			PlanInvalidations: s.planInvalidations.Load(),
			ApplyUS:           s.applyUS.Load(),
			MaintainUS:        s.maintainUS.Load(),
			RecomputedEntries: s.recomputed.Load(),
		},
		Views:     s.viewSnapshot(),
		LatencyUS: make(map[string]histJSON),
		Documents: len(s.docs),
	}
	s.histMu.Lock()
	for name, h := range s.latency {
		resp.LatencyUS[name] = histOf(h)
	}
	resp.Partitions = histOf(&s.partitions)
	s.histMu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// plansResponse is the body of GET /debug/plans: the per-plan table, one
// row per resident cache entry (most recently used first) with its summed
// counter record, plus every registered view with where its pages live.
type plansResponse struct {
	Schema string       `json:"schema"`
	Plans  []planDetail `json:"plans"`
	Views  []viewRow    `json:"views"`
}

type planDetail struct {
	planMetrics
	// Counters is the summed deterministic counter record of every run the
	// plan served — the observed analogue of the §V cost-model terms.
	Counters counters.Counters `json:"counters"`
}

func (s *Server) handlePlans(w http.ResponseWriter, r *http.Request) {
	ents := s.cache.entries()
	resp := plansResponse{
		Schema: PlansSchema,
		Plans:  make([]planDetail, 0, len(ents)),
		Views:  s.viewRows(),
	}
	for _, ent := range ents {
		snap := ent.agg.Snapshot()
		resp.Plans = append(resp.Plans, planDetail{
			planMetrics: planRow(ent, snap),
			Counters:    snap.Counters,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleSlowlog serves the flight recorder's snapshot (schema
// viewjoin/slowlog/v1), or 404 when the recorder is disabled.
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	if s.slowlog == nil {
		writeError(w, http.StatusNotFound, "slowlog", errors.New("slow-query log disabled (start with -slowlog-size > 0)"), false)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.slowlog.snapshot())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	status := "ok"
	if draining {
		status = "draining"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(map[string]any{"status": status, "in_flight": s.inFlight.Load()})
}

// documentInfo is one entry of GET /documents.
type documentInfo struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	// Epoch is the document's current update epoch (0 until the first
	// /update); cursors are only valid at the epoch they were issued at.
	Epoch uint64 `json:"epoch"`
	// DocPieces is the size of the current snapshot's piece table; 1 = flat.
	DocPieces int        `json:"doc_pieces"`
	Views     []viewInfo `json:"views"`
}

type viewInfo struct {
	Pattern   string `json:"pattern"`
	Scheme    string `json:"scheme"`
	Entries   int    `json:"entries"`
	SizeBytes int64  `json:"size_bytes"`
	Tier      string `json:"tier"` // memory, file
	// Pieces is the piece count of the view's largest list; 1 = flat.
	Pieces int `json:"pieces"`
}

func (s *Server) handleDocuments(w http.ResponseWriter, r *http.Request) {
	out := []documentInfo{}
	for _, n := range sortedKeys(s.docs) {
		e := s.docs[n]
		di := documentInfo{Name: n, Nodes: e.doc.NumNodes(), Epoch: e.doc.Epoch(), DocPieces: e.doc.NumPieces()}
		for _, vn := range e.order {
			ve := e.views[vn]
			di.Views = append(di.Views, viewInfo{
				Pattern:   vn,
				Scheme:    ve.mv.Scheme().String(),
				Entries:   ve.mv.NumEntries(),
				SizeBytes: ve.mv.SizeBytes(),
				Tier:      ve.tier(),
				Pieces:    ve.mv.NumPieces(),
			})
		}
		out = append(out, di)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
