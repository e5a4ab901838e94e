package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"viewjoin"
)

const (
	testQuery = "//site//item[//description//keyword]/name"
	testViews = "//site//item//name; //description//keyword"
)

// newTestServer builds a Server over a small XMark document with the
// standard Q14-style view set materialized in LEp.
func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	d := viewjoin.GenerateXMark(0.05)
	if err := s.AddDocument("xmark", d); err != nil {
		t.Fatal(err)
	}
	views, err := viewjoin.ParseViews(testViews)
	if err != nil {
		t.Fatal(err)
	}
	mviews, err := d.MaterializeViews(views, viewjoin.SchemeLEp)
	if err != nil {
		t.Fatal(err)
	}
	for _, mv := range mviews {
		if err := s.AddView("xmark", mv); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// post sends one query request and decodes the response body into out
// (which may be nil), returning the HTTP status.
func post(t testing.TB, ts *httptest.Server, path string, req any, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return resp.StatusCode
}

func getMetrics(t testing.TB, ts *httptest.Server) metricsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestQueryCacheAccounting pins the plan-cache contract: the first request
// for a plan is a miss that prepares once, every identical request after
// it is a hit that performs no Prepare work (the prepares counter must not
// move), different engines get distinct entries, and all of it is
// reported on /metrics. Results must agree with the library evaluation.
func TestQueryCacheAccounting(t *testing.T) {
	var log bytes.Buffer
	s := newTestServer(t, Config{AccessLog: &log})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	d := viewjoin.GenerateXMark(0.05)
	q := viewjoin.MustParseQuery(testQuery)
	want := viewjoin.EvaluateDirect(d, q)

	var first queryResponse
	if st := post(t, ts, "/query", queryRequest{Document: "xmark", Query: testQuery, Engine: "VJ"}, &first); st != http.StatusOK {
		t.Fatalf("first request: status %d", st)
	}
	if first.Schema != ResponseSchema {
		t.Errorf("schema %q, want %q", first.Schema, ResponseSchema)
	}
	if first.Cache != "miss" {
		t.Errorf("first request cache=%q, want miss", first.Cache)
	}
	if first.MatchCount != len(want.Matches) {
		t.Errorf("match_count %d, want %d", first.MatchCount, len(want.Matches))
	}

	const hitRuns = 5
	for i := 0; i < hitRuns; i++ {
		var r queryResponse
		if st := post(t, ts, "/query", queryRequest{Document: "xmark", Query: testQuery, Engine: "VJ"}, &r); st != http.StatusOK {
			t.Fatalf("hit %d: status %d", i, st)
		}
		if r.Cache != "hit" {
			t.Errorf("hit %d: cache=%q, want hit", i, r.Cache)
		}
		if r.MatchCount != first.MatchCount {
			t.Errorf("hit %d: match_count %d, want %d", i, r.MatchCount, first.MatchCount)
		}
	}

	// The same plan under a different engine is a distinct cache entry.
	var ts2 queryResponse
	if st := post(t, ts, "/query", queryRequest{Document: "xmark", Query: testQuery, Engine: "TS"}, &ts2); st != http.StatusOK {
		t.Fatalf("TS request: status %d", st)
	}
	if ts2.Cache != "miss" {
		t.Errorf("TS request cache=%q, want miss", ts2.Cache)
	}
	if ts2.MatchCount != first.MatchCount {
		t.Errorf("TS match_count %d, want %d", ts2.MatchCount, first.MatchCount)
	}

	m := getMetrics(t, ts)
	if m.Schema != MetricsSchema {
		t.Errorf("metrics schema %q, want %q", m.Schema, MetricsSchema)
	}
	if m.PlanCache.Hits != hitRuns {
		t.Errorf("hits = %d, want %d", m.PlanCache.Hits, hitRuns)
	}
	if m.PlanCache.Misses != 2 {
		t.Errorf("misses = %d, want 2", m.PlanCache.Misses)
	}
	// The pin: hits performed no Prepare work — exactly one plan was built
	// per miss, none per hit.
	if m.PlanCache.Prepares != 2 {
		t.Errorf("prepares = %d, want 2 (hit path must not Prepare)", m.PlanCache.Prepares)
	}
	if m.PlanCache.Size != 2 {
		t.Errorf("cache size = %d, want 2", m.PlanCache.Size)
	}
	if m.Requests.Total != int64(hitRuns+2) {
		t.Errorf("requests total = %d, want %d", m.Requests.Total, hitRuns+2)
	}
	if h, ok := m.LatencyUS["VJ"]; !ok || h.N != int64(hitRuns+1) {
		t.Errorf("VJ latency histogram: %+v, want n=%d", h, hitRuns+1)
	}

	// Access log: one viewjoin/access/v1 line per request.
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) != hitRuns+2 {
		t.Fatalf("access log has %d lines, want %d", len(lines), hitRuns+2)
	}
	var al accessLine
	if err := json.Unmarshal([]byte(lines[0]), &al); err != nil {
		t.Fatalf("access line: %v", err)
	}
	if al.Schema != AccessSchema || al.Status != http.StatusOK || al.Cache != "miss" {
		t.Errorf("first access line %+v", al)
	}
}

// TestQueryCacheHitAllocations pins that the cache-hit lookup itself does
// no Prepare work at the allocation level: a hit through planCache.get
// allocates nothing.
func TestQueryCacheHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := newTestServer(t, Config{})
	req := &queryRequest{Document: "xmark", Query: testQuery, Engine: "VJ"}
	q, err := viewjoin.ParseQuery(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	rv, f := s.resolve(req)
	if f != nil {
		t.Fatal(f.err)
	}
	if _, hit, err := s.plan(req, &rv); err != nil || hit {
		t.Fatalf("warmup plan: hit=%v err=%v", hit, err)
	}
	key := planKey{doc: "xmark", query: q.String(), engine: rv.engine, views: strings.Join(rv.canon, ";")}
	allocs := testing.AllocsPerRun(100, func() {
		if p := s.cache.get(key, rawKey{}); p == nil {
			t.Fatal("cache lost the plan")
		}
	})
	if allocs > 0 {
		t.Errorf("cache hit allocates %.1f objects per lookup, want 0", allocs)
	}
	if got := s.prepares.Load(); got != 1 {
		t.Errorf("prepares = %d after hit-only lookups, want 1", got)
	}
}

// TestQueryDeadlineExpiry holds the evaluation gate past the request
// deadline: the response must be a 504 with the structured timeout shape
// (partial=false), and the very same plan must serve a correct 200
// immediately afterwards — the pooled evaluator scratch survives the
// aborted run (the -race run of this test is the leak check).
func TestQueryDeadlineExpiry(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	s.testEvalGate = gate
	s.testEvalStarted = func() { started <- struct{}{} }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := queryRequest{Document: "xmark", Query: testQuery, Engine: "VJ", TimeoutMS: 5}
	type reply struct {
		status int
		body   errorResponse
	}
	done := make(chan reply, 1)
	go func() {
		var er errorResponse
		st := post(t, ts, "/query", req, &er)
		done <- reply{st, er}
	}()
	<-started
	// The deadline was set before the gate; once it has certainly passed,
	// release the request into evaluation.
	time.Sleep(20 * time.Millisecond)
	gate <- struct{}{}
	r := <-done
	if r.status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %+v)", r.status, r.body)
	}
	if r.body.Partial {
		t.Errorf("timeout response claims partial results: %+v", r.body)
	}
	if !r.body.Timeout {
		t.Errorf("timeout response not flagged as timeout: %+v", r.body)
	}
	if r.body.Stage != "evaluate" {
		t.Errorf("timeout stage %q, want evaluate", r.body.Stage)
	}

	// Same plan, sane deadline: must evaluate cleanly on the recycled
	// scratch, as a cache hit.
	var ok queryResponse
	go func() { <-started; gate <- struct{}{} }()
	if st := post(t, ts, "/query", queryRequest{Document: "xmark", Query: testQuery, Engine: "VJ"}, &ok); st != http.StatusOK {
		t.Fatalf("post-timeout request: status %d", st)
	}
	if ok.Cache != "hit" {
		t.Errorf("post-timeout cache=%q, want hit (the aborted run built the plan)", ok.Cache)
	}
	d := viewjoin.GenerateXMark(0.05)
	want := viewjoin.EvaluateDirect(d, viewjoin.MustParseQuery(testQuery))
	if ok.MatchCount != len(want.Matches) {
		t.Errorf("post-timeout match_count %d, want %d", ok.MatchCount, len(want.Matches))
	}
	m := getMetrics(t, ts)
	if m.Requests.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", m.Requests.Timeouts)
	}
}

// TestQueryShedding saturates the single worker and its queue and pins
// the 429 path: with QueueDepth 1 and one request already waiting, the
// next is shed immediately with the structured admission error and
// counted on /metrics. The waiter reaches evaluation only once the held
// request has finished, and then completes.
func TestQueryShedding(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	gate := make(chan struct{})
	started := make(chan struct{}, 2)
	s.testEvalGate = gate
	s.testEvalStarted = func() { started <- struct{}{} }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := queryRequest{Document: "xmark", Query: testQuery, Engine: "VJ"}
	results := make(chan int, 2)
	serve := func() { results <- post(t, ts, "/query", req, nil) }
	go serve()
	<-started // the worker slot is now held
	go serve()
	for i := 0; s.queued.Load() == 0 && i < 2000; i++ {
		time.Sleep(time.Millisecond)
	}
	if s.queued.Load() != 1 {
		close(gate) // let both requests through before failing
		t.Fatal("second request never queued")
	}

	var er errorResponse
	if st := post(t, ts, "/query", req, &er); st != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d, want 429 (body %+v)", st, er)
	}
	if er.Stage != "admission" {
		t.Errorf("shed stage %q, want admission", er.Stage)
	}

	if len(started) != 0 {
		close(gate)
		t.Fatal("the queued request began evaluating while the worker was held")
	}
	gate <- struct{}{} // the held request finishes; the waiter takes its slot
	<-started
	gate <- struct{}{}
	for range 2 {
		if st := <-results; st != http.StatusOK {
			t.Fatalf("held or queued request: status %d", st)
		}
	}
	m := getMetrics(t, ts)
	if m.Requests.Shed != 1 {
		t.Errorf("shed = %d, want 1", m.Requests.Shed)
	}
	if m.Requests.Total != 3 {
		t.Errorf("total = %d, want 3", m.Requests.Total)
	}
}

// TestQueuedCountsEveryWaiter: a request waiting for the busy worker
// shows on /metrics as queued whether the queue is bounded or not, and
// leaves the count when it gets the worker.
func TestQueuedCountsEveryWaiter(t *testing.T) {
	for _, depth := range []int{-1, 4} {
		t.Run(fmt.Sprint(depth), func(t *testing.T) {
			s := newTestServer(t, Config{Workers: 1, QueueDepth: depth})
			gate := make(chan struct{})
			started := make(chan struct{}, 2)
			s.testEvalGate = gate
			s.testEvalStarted = func() { started <- struct{}{} }
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			req := queryRequest{Document: "xmark", Query: testQuery, Engine: "VJ"}
			results := make(chan int, 2)
			serve := func() { results <- post(t, ts, "/query", req, nil) }
			go serve()
			<-started // the worker is held
			go serve()
			// The waiter is counted before it blocks; give it 2s to get
			// there, and release the worker whatever /metrics reads, so a
			// failure does not leave the test server waiting on the gate.
			for i := 0; s.queued.Load() == 0 && i < 2000; i++ {
				time.Sleep(time.Millisecond)
			}
			if q := getMetrics(t, ts).Requests.Queued; q != 1 {
				t.Errorf("queued = %d with one request waiting for the worker, want 1", q)
			}
			gate <- struct{}{}
			<-started
			gate <- struct{}{}
			for range 2 {
				if st := <-results; st != http.StatusOK {
					t.Fatalf("status %d", st)
				}
			}
			if q := getMetrics(t, ts).Requests.Queued; q != 0 {
				t.Errorf("queued = %d after both requests finished, want 0", q)
			}
		})
	}
}

// TestDefaultQueueDepth: the zero QueueDepth is a 16-deep queue. With the
// one worker held, 16 requests wait for it and show on /metrics as
// queued, the 17th is shed with 429, and every waiter is served once the
// worker is free.
func TestDefaultQueueDepth(t *testing.T) {
	const depth = 16
	s := newTestServer(t, Config{Workers: 1})
	gate := make(chan struct{})
	started := make(chan struct{}, depth+1)
	s.testEvalGate = gate
	s.testEvalStarted = func() { started <- struct{}{} }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := queryRequest{Document: "xmark", Query: testQuery, Engine: "VJ"}
	results := make(chan int, depth+1)
	serve := func() { results <- post(t, ts, "/query", req, nil) }
	go serve()
	<-started // the worker is held
	for range depth {
		go serve()
	}
	for i := 0; s.queued.Load() < depth && i < 5000; i++ {
		time.Sleep(time.Millisecond)
	}
	if q := getMetrics(t, ts).Requests.Queued; q != depth {
		close(gate) // let every request through before failing
		t.Fatalf("queued = %d with %d requests waiting for the worker, want %d", q, depth, depth)
	}
	var er errorResponse
	if st := post(t, ts, "/query", req, &er); st != http.StatusTooManyRequests || er.Stage != "admission" {
		t.Errorf("waiter %d: status %d stage %q, want 429 at admission", depth+1, st, er.Stage)
	}
	close(gate)
	for range depth + 1 {
		if st := <-results; st != http.StatusOK {
			t.Errorf("held or queued request: status %d, want 200", st)
		}
	}
	if m := getMetrics(t, ts).Requests; m.Shed != 1 || m.Queued != 0 {
		t.Errorf("shed = %d, queued = %d after the run; want 1 and 0", m.Shed, m.Queued)
	}
}

// TestGracefulDrain pins the SIGTERM path: draining rejects new queries
// with 503 and flips /healthz, while the in-flight request completes
// normally and Drain returns only after it has.
func TestGracefulDrain(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	s.testEvalGate = gate
	s.testEvalStarted = func() { started <- struct{}{} }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := queryRequest{Document: "xmark", Query: testQuery, Engine: "VJ"}
	inflight := make(chan int, 1)
	go func() {
		var r queryResponse
		inflight <- post(t, ts, "/query", req, &r)
	}()
	<-started

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	// Drain flips the flag before blocking; wait until /healthz sees it.
	for i := 0; ; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Status string `json:"status"`
		}
		json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if h.Status == "draining" {
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("draining healthz status %d, want 503", resp.StatusCode)
			}
			break
		}
		if i > 5000 {
			t.Fatal("server never reported draining")
		}
		time.Sleep(time.Millisecond)
	}

	var er errorResponse
	if st := post(t, ts, "/query", req, &er); st != http.StatusServiceUnavailable {
		t.Fatalf("query while draining: status %d, want 503", st)
	}
	if er.Stage != "admission" {
		t.Errorf("draining stage %q, want admission", er.Stage)
	}

	select {
	case <-drained:
		t.Fatal("Drain returned while a request was still in flight")
	default:
	}
	gate <- struct{}{}
	if st := <-inflight; st != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d", st)
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return after the in-flight request finished")
	}
}

// TestDebugTrace pins the tracing endpoint: it runs the same cached plan
// /query does (miss, then hit) under a per-request recorder, and the
// response embeds a full viewjoin/trace/v2 report each time.
func TestDebugTrace(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i, wantCache := range []string{"miss", "hit"} {
		var r queryResponse
		if st := post(t, ts, "/debug/trace", queryRequest{Document: "xmark", Query: testQuery, Engine: "VJ"}, &r); st != http.StatusOK {
			t.Fatalf("trace request %d: status %d", i, st)
		}
		if r.Cache != wantCache {
			t.Errorf("trace request %d: cache=%q, want %s", i, r.Cache, wantCache)
		}
		if r.Trace == nil {
			t.Fatalf("trace request %d: no embedded report", i)
		}
		if r.Trace.Schema != "viewjoin/trace/v2" {
			t.Errorf("trace schema %q, want viewjoin/trace/v2", r.Trace.Schema)
		}
		if len(r.Trace.Phases) == 0 {
			t.Error("trace report has no phases")
		}
	}
	// The plan a trace prepared is the plan /query hits.
	var r queryResponse
	post(t, ts, "/query", queryRequest{Document: "xmark", Query: testQuery, Engine: "VJ"}, &r)
	if r.Cache != "hit" || r.Trace != nil {
		t.Errorf("/query after traces: cache=%q trace=%v, want a hit without a report", r.Cache, r.Trace != nil)
	}
	if m := getMetrics(t, ts); m.PlanCache.Prepares != 1 || m.PlanCache.Size != 1 {
		t.Errorf("prepares=%d size=%d after three requests for one plan, want 1 and 1", m.PlanCache.Prepares, m.PlanCache.Size)
	}
}

// TestQueryErrors pins the structured-error statuses: unknown document
// (404), bad query (400), unknown view (404), unknown engine (400), and
// an engine/scheme mismatch at prepare time (422, stage "prepare" on the
// traced surface too).
func TestQueryErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		path   string
		req    queryRequest
		status int
		stage  string
	}{
		{"unknown document", "/query", queryRequest{Document: "nope", Query: testQuery}, http.StatusNotFound, "resolve"},
		{"bad query", "/query", queryRequest{Document: "xmark", Query: "//a["}, http.StatusBadRequest, "parse"},
		{"unknown view", "/query", queryRequest{Document: "xmark", Query: testQuery, Views: []string{"//nosuch//view"}}, http.StatusNotFound, "resolve"},
		{"bad engine", "/query", queryRequest{Document: "xmark", Query: testQuery, Engine: "XX"}, http.StatusBadRequest, "parse"},
		{"engine mismatch", "/query", queryRequest{Document: "xmark", Query: testQuery, Engine: "IJ"}, http.StatusUnprocessableEntity, "prepare"},
		{"engine mismatch, traced", "/debug/trace", queryRequest{Document: "xmark", Query: testQuery, Engine: "IJ"}, http.StatusUnprocessableEntity, "prepare"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var er errorResponse
			if st := post(t, ts, c.path, c.req, &er); st != c.status {
				t.Fatalf("status %d, want %d (body %+v)", st, c.status, er)
			}
			if er.Stage != c.stage {
				t.Errorf("stage %q, want %q", er.Stage, c.stage)
			}
			if er.Error == "" {
				t.Error("empty error text")
			}
		})
	}
}

// TestStrictRequestBodies: every POST endpoint decodes its body strictly.
// A field the request does not name — a stale client's "tenant", a
// misspelled "limit", a "parallel" ask (a request runs on one worker) — is
// a 400 at stage "request", counted in failures and written to the access
// log, instead of being dropped and answered as some other request.
func TestStrictRequestBodies(t *testing.T) {
	var log bytes.Buffer
	s := newTestServer(t, Config{AccessLog: &log})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	query := `{"document":"xmark","query":"` + testQuery + `","limit":20}`
	cases := []struct {
		name, path, body string
		status           int
	}{
		{"tenant", "/query", `{"tenant":"acme","document":"xmark","query":"` + testQuery + `"}`, http.StatusBadRequest},
		{"misspelled limit", "/query", `{"document":"xmark","query":"` + testQuery + `","limt":20}`, http.StatusBadRequest},
		{"parallel", "/query", `{"document":"xmark","query":"` + testQuery + `","limit":20,"parallel":2}`, http.StatusBadRequest},
		{"well-formed", "/query", query, http.StatusOK},
		{"tenant", "/debug/trace", `{"tenant":"acme","document":"xmark","query":"` + testQuery + `"}`, http.StatusBadRequest},
		{"misspelled limit", "/debug/trace", `{"document":"xmark","query":"` + testQuery + `","limt":20}`, http.StatusBadRequest},
		{"parallel", "/debug/trace", `{"document":"xmark","query":"` + testQuery + `","limit":20,"parallel":2}`, http.StatusBadRequest},
		{"well-formed", "/debug/trace", query, http.StatusOK},
		{"tenant", "/update", `{"tenant":"ghost","document":"xmark","op":"delete-subtree","target":1}`, http.StatusBadRequest},
		{"misspelled target", "/update", `{"document":"xmark","op":"append-child","traget":1,"fragment":"<ext/>"}`, http.StatusBadRequest},
		{"well-formed", "/update", `{"document":"xmark","op":"append-child","target":1,"fragment":"<ext/>"}`, http.StatusOK},
	}
	bad := 0
	for _, c := range cases {
		t.Run(c.path+" "+c.name, func(t *testing.T) {
			log.Reset()
			var er errorResponse
			if st := post(t, ts, c.path, json.RawMessage(c.body), &er); st != c.status {
				t.Fatalf("status %d, want %d (body %+v)", st, c.status, er)
			}
			if c.status == http.StatusBadRequest {
				bad++
				if er.Stage != "request" || !strings.Contains(er.Error, "json: unknown field") {
					t.Errorf("stage %q error %q, want an unknown field at stage request", er.Stage, er.Error)
				}
				var line accessLine
				if err := json.Unmarshal(log.Bytes(), &line); err != nil || line.Status != c.status || line.Stage != "request" {
					t.Errorf("access log %q (%v), want one 400 line at stage request", log.String(), err)
				}
			}
		})
	}
	if m := getMetrics(t, ts); m.Requests.Failures != int64(bad) {
		t.Errorf("failures = %d, want the %d refused bodies", m.Requests.Failures, bad)
	}
}

// TestCacheEviction fills a capacity-2 cache with three plans and checks
// LRU order: the least recently used entry is the one evicted.
func TestCacheEviction(t *testing.T) {
	s := newTestServer(t, Config{CacheSize: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reqs := []queryRequest{
		{Document: "xmark", Query: testQuery, Engine: "VJ"},
		{Document: "xmark", Query: testQuery, Engine: "TS"},
		{Document: "xmark", Query: "//site//item//name", Engine: "VJ", Views: []string{"//site//item//name"}},
	}
	for i, r := range reqs {
		var resp queryResponse
		if st := post(t, ts, "/query", r, &resp); st != http.StatusOK {
			t.Fatalf("request %d: status %d", i, st)
		}
	}
	m := getMetrics(t, ts)
	if m.PlanCache.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", m.PlanCache.Evictions)
	}
	if m.PlanCache.Size != 2 {
		t.Errorf("size = %d, want 2", m.PlanCache.Size)
	}
	// The VJ plan (request 0) was the LRU victim: the TS plan is still
	// cached, and rerunning the victim is a miss. (Order matters — the
	// re-miss inserts and evicts again.)
	var r1 queryResponse
	post(t, ts, "/query", reqs[1], &r1)
	if r1.Cache != "hit" {
		t.Errorf("retained plan came back as %q, want hit", r1.Cache)
	}
	var r0 queryResponse
	post(t, ts, "/query", reqs[0], &r0)
	if r0.Cache != "miss" {
		t.Errorf("evicted plan came back as %q, want miss", r0.Cache)
	}
}

// TestInvalidationIsNoEviction pins what plan_cache.evictions counts: an
// /update that drops a document's plans from a cache with room to spare
// counts them as plan invalidations, not as evictions, so evictions keep
// measuring capacity pressure alone.
func TestInvalidationIsNoEviction(t *testing.T) {
	s, _ := updateTestServer(t, Config{CacheSize: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, eng := range []string{"VJ", "TS"} {
		if st := post(t, ts, "/query", queryRequest{Document: "xmark", Query: testQuery, Engine: eng}, nil); st != http.StatusOK {
			t.Fatalf("%s: status %d", eng, st)
		}
	}
	if st := post(t, ts, "/update", updateRequest{Document: "xmark", Op: "insert-before", Target: anyTarget(t, ts),
		Fragment: "<item><name>x</name></item>"}, nil); st != http.StatusOK {
		t.Fatalf("/update: status %d", st)
	}
	m := getMetrics(t, ts)
	if m.Updates.PlanInvalidations != 2 || m.PlanCache.Evictions != 0 {
		t.Errorf("plan_invalidations = %d, evictions = %d; want 2, 0", m.Updates.PlanInvalidations, m.PlanCache.Evictions)
	}
}

// TestConcurrentQueries hammers the full stack — admission, cache, pooled
// scratch — from many goroutines over a mix of request shapes: full runs
// binding every registered view (views omitted) on two engines, a
// view-scoped run, and a 20-row page with its cursor follow-up. With -race
// this is the server-level isolation proof. Every concurrent response must
// equal the same request's solo response: match count, rows and cursor.
func TestConcurrentQueries(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, QueueDepth: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reqs := []queryRequest{
		{Document: "xmark", Query: testQuery, Engine: "VJ"},
		{Document: "xmark", Query: testQuery, Engine: "TS"},
		{Document: "xmark", Query: "//site//item//name", Views: []string{"//site//item//name"}},
		{Document: "xmark", Query: testQuery, Limit: 20},
	}
	solo := make([]queryResponse, 0, len(reqs)+1)
	ask := func(r queryRequest) queryResponse {
		t.Helper()
		var resp queryResponse
		if st := post(t, ts, "/query", r, &resp); st != http.StatusOK || resp.MatchCount == 0 {
			t.Fatalf("solo %+v: status %d, %d matches", r, st, resp.MatchCount)
		}
		return resp
	}
	for _, r := range reqs {
		solo = append(solo, ask(r))
	}
	page := solo[len(solo)-1]
	if page.Cursor == "" {
		t.Fatalf("the 20-row page returned no cursor (%d matches)", page.MatchCount)
	}
	next := reqs[len(reqs)-1]
	next.Cursor = page.Cursor
	reqs = append(reqs, next)
	solo = append(solo, ask(next))

	goroutines := 3 * len(reqs)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g % len(reqs)
			want := solo[i]
			for run := 0; run < 3; run++ {
				var r queryResponse
				if st := post(t, ts, "/query", reqs[i], &r); st != http.StatusOK {
					errs <- fmt.Errorf("goroutine %d run %d (request %d): status %d", g, run, i, st)
					return
				}
				if r.MatchCount != want.MatchCount || r.Cursor != want.Cursor || fmt.Sprint(r.Matches) != fmt.Sprint(want.Matches) {
					errs <- fmt.Errorf("goroutine %d run %d (request %d): %d matches, cursor %q; want the solo answer, %d matches, cursor %q",
						g, run, i, r.MatchCount, r.Cursor, want.MatchCount, want.Cursor)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDocumentsEndpoint sanity-checks the registry listing.
func TestDocumentsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/documents")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var docs []documentInfo
	if err := json.NewDecoder(resp.Body).Decode(&docs); err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0].Name != "xmark" {
		t.Fatalf("documents = %+v", docs)
	}
	if len(docs[0].Views) != 2 {
		t.Errorf("views = %+v, want 2", docs[0].Views)
	}
	if docs[0].Views[0].Scheme != "LEp" {
		t.Errorf("scheme %q, want LEp", docs[0].Views[0].Scheme)
	}
}

// TestMatchRows verifies the limit parameter returns bounded match rows,
// cell k of each tagged with query node k's label.
func TestMatchRows(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var r struct {
		MatchCount int `json:"match_count"`
		Matches    [][]struct {
			Tag string `json:"tag"`
		} `json:"matches"`
	}
	if st := post(t, ts, "/query", queryRequest{Document: "xmark", Query: testQuery, Engine: "VJ", Limit: 3}, &r); st != http.StatusOK {
		t.Fatalf("status %d", st)
	}
	if r.MatchCount < 3 {
		t.Skipf("document too small: %d matches", r.MatchCount)
	}
	if len(r.Matches) != 3 {
		t.Fatalf("returned %d rows, want 3", len(r.Matches))
	}
	labels := viewjoin.MustParseQuery(testQuery).Labels()
	for _, row := range r.Matches {
		if len(row) != len(labels) {
			t.Fatalf("malformed row %+v", row)
		}
		for k, c := range row {
			if c.Tag != labels[k] {
				t.Fatalf("cell %d tagged %q, want %q", k, c.Tag, labels[k])
			}
		}
	}
}

// TestPaginationCursorRoundTrip pages through the whole result with
// limit+cursor and checks the concatenated pages reassemble the full
// unlimited run exactly: same rows, same order, no gaps or duplicates,
// and the last page carries no cursor.
func TestPaginationCursorRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Reference: the full run (count only) and one big page holding every
	// row.
	var full queryResponse
	if st := post(t, ts, "/query", map[string]any{
		"document": "xmark", "query": testQuery, "limit": 1 << 20,
	}, &full); st != http.StatusOK {
		t.Fatalf("full run status %d", st)
	}
	if len(full.Matches) == 0 {
		t.Fatal("test query has no matches")
	}
	if full.Cursor != "" {
		t.Fatalf("oversized page returned a cursor (%d rows)", len(full.Matches))
	}

	const pageSize = 7
	var pages [][]viewjoin.Node
	cursor := ""
	for i := 0; ; i++ {
		if i > len(full.Matches) {
			t.Fatal("pagination did not terminate")
		}
		req := map[string]any{"document": "xmark", "query": testQuery, "limit": pageSize}
		if cursor != "" {
			req["cursor"] = cursor
		}
		var resp queryResponse
		if st := post(t, ts, "/query", req, &resp); st != http.StatusOK {
			t.Fatalf("page %d status %d", i, st)
		}
		if resp.MatchCount != len(resp.Matches) {
			t.Fatalf("page %d: match_count %d != %d rows", i, resp.MatchCount, len(resp.Matches))
		}
		if len(resp.Matches) > pageSize {
			t.Fatalf("page %d: %d rows > limit %d", i, len(resp.Matches), pageSize)
		}
		pages = append(pages, resp.Matches...)
		if resp.Cursor == "" {
			if len(resp.Matches) == pageSize && len(pages) < len(full.Matches) {
				t.Fatalf("page %d: full page without cursor before the end", i)
			}
			break
		}
		if len(resp.Matches) != pageSize {
			t.Fatalf("page %d: short page (%d rows) carries a cursor", i, len(resp.Matches))
		}
		cursor = resp.Cursor
	}
	if len(pages) != len(full.Matches) {
		t.Fatalf("pages reassemble %d rows, full run has %d", len(pages), len(full.Matches))
	}
	for i := range pages {
		if fmt.Sprint(pages[i]) != fmt.Sprint(full.Matches[i]) {
			t.Fatalf("row %d differs: paged %v, full %v", i, pages[i], full.Matches[i])
		}
	}
}

// TestDeepCursorWalk follows the cursor through 200 pages, each run resumed
// by seeking to its page: the pages reassemble the first rows of the full
// result.
func TestDeepCursorWalk(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const pageSize, pages = 1, 200
	views := strings.Split(testViews, "; ")
	var full queryResponse
	if st := post(t, ts, "/query", queryRequest{Document: "xmark", Query: testQuery, Views: views, Limit: 1 << 20}, &full); st != http.StatusOK {
		t.Fatalf("full run status %d", st)
	}
	if len(full.Matches) < pageSize*pages {
		t.Fatalf("%d rows cannot fill %d pages of %d", len(full.Matches), pages, pageSize)
	}
	var rows [][]viewjoin.Node
	req := queryRequest{Document: "xmark", Query: testQuery, Views: views, Limit: pageSize}
	for page := 0; page < pages; page++ {
		var resp queryResponse
		if st := post(t, ts, "/query", req, &resp); st != http.StatusOK {
			t.Fatalf("page %d: status %d", page, st)
		}
		rows = append(rows, resp.Matches...)
		if req.Cursor = resp.Cursor; req.Cursor == "" {
			t.Fatalf("page %d: no cursor with %d rows to go", page, len(full.Matches)-len(rows))
		}
	}
	if fmt.Sprint(rows) != fmt.Sprint(full.Matches[:pageSize*pages]) {
		t.Fatalf("%d pages reassemble %d rows that are not the full result's first %d", pages, len(rows), pageSize*pages)
	}
}

// TestHugeLimitAnswersInFull: a limit no page can reach is no limit. On
// PathStack, which shrinks its accumulation against the quota, such a
// request used to pin its worker until the deadline.
func TestHugeLimitAnswersInFull(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := map[string]any{
		"document": "xmark", "query": "//site//item//name", "views": []string{"//site//item//name"},
		"engine": "PS", "limit": 1 << 20,
	}
	var want, got queryResponse
	if st := post(t, ts, "/query", req, &want); st != http.StatusOK || len(want.Matches) == 0 {
		t.Fatalf("reference page: status %d, %d rows", st, len(want.Matches))
	}
	req["limit"] = int64(math.MaxInt64)
	if st := post(t, ts, "/query", req, &got); st != http.StatusOK {
		t.Fatalf("limit MaxInt64: status %d", st)
	}
	if got.Cursor != "" || fmt.Sprint(got.Matches) != fmt.Sprint(want.Matches) {
		t.Fatalf("limit MaxInt64: %d rows, cursor %q; want the full result's %d rows and no cursor",
			len(got.Matches), got.Cursor, len(want.Matches))
	}
}

// TestHugeTimeoutAnswersInFull: the longest deadline a request can ask
// for is no deadline worth enforcing, not an instant one — timeout_ms is
// clamped before it is scaled to a duration, so MaxInt64 cannot wrap
// negative into a 504.
func TestHugeTimeoutAnswersInFull(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := map[string]any{"document": "xmark", "query": testQuery, "limit": 1 << 20}
	var want, got queryResponse
	if st := post(t, ts, "/query", req, &want); st != http.StatusOK || len(want.Matches) == 0 {
		t.Fatalf("reference page: status %d, %d rows", st, len(want.Matches))
	}
	req["timeout_ms"] = int64(math.MaxInt64)
	if st := post(t, ts, "/query", req, &got); st != http.StatusOK {
		t.Fatalf("timeout_ms MaxInt64: status %d", st)
	}
	if fmt.Sprint(got.Matches) != fmt.Sprint(want.Matches) {
		t.Fatalf("timeout_ms MaxInt64: %d rows, want the full result's %d", len(got.Matches), len(want.Matches))
	}
}

// TestPaginationBadCursor checks malformed cursors are rejected with 400.
func TestPaginationBadCursor(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, cur := range []string{"!!!", "AAAA"} { // undecodable; wrong length
		var er errorResponse
		if st := post(t, ts, "/query", map[string]any{
			"document": "xmark", "query": testQuery, "limit": 3, "cursor": cur,
		}, &er); st != http.StatusBadRequest {
			t.Fatalf("cursor %q: status %d, want 400", cur, st)
		}
	}
}

// TestFirstMatchStat checks the serving surface reports time-to-first-match,
// in the response and, with the run time, on the access line.
func TestFirstMatchStat(t *testing.T) {
	var log bytes.Buffer
	s := newTestServer(t, Config{AccessLog: &log})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var resp wireResponse
	if st := post(t, ts, "/query", map[string]any{
		"document": "xmark", "query": testQuery, "limit": 1,
	}, &resp); st != http.StatusOK {
		t.Fatalf("status %d", st)
	}
	if resp.Stats.FirstMatchUS <= 0 {
		t.Fatalf("first_match_us = %d, want > 0", resp.Stats.FirstMatchUS)
	}
	var line accessLine
	if err := json.Unmarshal(log.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if line.RunUS <= 0 || line.FirstMatchUS != resp.Stats.FirstMatchUS {
		t.Errorf("access line run_us %d, first_match_us %d; want > 0 and the response's %d",
			line.RunUS, line.FirstMatchUS, resp.Stats.FirstMatchUS)
	}
}

// TestAccessLineTime: an access line's time is an RFC 3339 UTC stamp.
func TestAccessLineTime(t *testing.T) {
	var log bytes.Buffer
	s := newTestServer(t, Config{AccessLog: &log})
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"document":"xmark","query":"`+testQuery+`","limit":1}`)))
	var line struct {
		Time string `json:"time"`
	}
	if err := json.Unmarshal(log.Bytes(), &line); err != nil {
		t.Fatalf("access line %q: %v", log.String(), err)
	}
	if _, err := time.Parse(time.RFC3339Nano, line.Time); err != nil || !strings.HasSuffix(line.Time, "Z") {
		t.Errorf("access line time %q: %v; want an RFC 3339 stamp in UTC", line.Time, err)
	}
}

// TestUndecodableBodiesAreLogged: a body that does not decode is a 400 at
// stage "request" on every POST endpoint, and each writes an access line
// naming the request as far as it decoded.
func TestUndecodableBodiesAreLogged(t *testing.T) {
	var log bytes.Buffer
	s := newTestServer(t, Config{AccessLog: &log})
	h := s.Handler()
	for _, path := range []string{"/query", "/debug/trace", "/update"} {
		log.Reset()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"document":"xmark","tenant":"acme"}`)))
		var line accessLine
		if err := json.Unmarshal(log.Bytes(), &line); err != nil {
			t.Fatalf("%s: status %d, access log %q: %v", path, w.Code, log.String(), err)
		}
		if w.Code != http.StatusBadRequest || line.Status != http.StatusBadRequest || line.Stage != "request" ||
			line.Document != "xmark" || !strings.Contains(line.Error, "unknown field") {
			t.Errorf("%s: status %d, access line %+v; want a 400 at stage request naming document xmark", path, w.Code, line)
		}
	}
}

// TestMethodNotAllowedNamesAllow: a GET to a POST endpoint is a 405 whose
// Allow header names POST (RFC 9110 §15.5.6), and is neither counted nor
// logged.
func TestMethodNotAllowedNamesAllow(t *testing.T) {
	var log bytes.Buffer
	s := newTestServer(t, Config{AccessLog: &log})
	h := s.Handler()
	for _, path := range []string{"/query", "/debug/trace", "/update"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusMethodNotAllowed || w.Header().Get("Allow") != http.MethodPost {
			t.Errorf("GET %s: status %d, Allow %q; want 405 and POST", path, w.Code, w.Header().Get("Allow"))
		}
	}
	if s.requests.Load() != 0 || log.Len() != 0 {
		t.Errorf("405s counted %d requests and logged %q; want neither", s.requests.Load(), log.String())
	}
}
