package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"viewjoin"
)

// updateTestServer is newTestServer plus a handle on the registered
// document, which update tests need to run the library oracle against.
func updateTestServer(t testing.TB, cfg Config) (*Server, *viewjoin.Document) {
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
	return s, d
}

// anyTarget returns the start label of some non-root node via the query
// API, the way a client would address an update target.
func anyTarget(t testing.TB, ts *httptest.Server) int32 {
	t.Helper()
	var qr queryResponse
	if st := post(t, ts, "/query", queryRequest{
		Document: "xmark", Query: testQuery, Limit: 1,
	}, &qr); st != http.StatusOK {
		t.Fatalf("target query: status %d", st)
	}
	if len(qr.Matches) == 0 {
		t.Fatal("target query returned no rows")
	}
	row := qr.Matches[0]
	return row[len(row)-1].Start
}

// TestUpdateEndToEnd applies an insert through POST /update and checks the
// transition end to end: the epoch advances, every view reports a
// maintenance outcome, /documents reflects the new epoch and node count,
// the update metrics move, and — the actual correctness bar — post-update
// query results over the maintained views are identical to a fresh
// materialization from the updated document, for every engine.
func TestUpdateEndToEnd(t *testing.T) {
	s, d := updateTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	target := anyTarget(t, ts)
	nodesBefore := d.NumNodes()

	var ur updateResponse
	st := post(t, ts, "/update", updateRequest{
		Document: "xmark", Op: "insert-before", Target: target,
		Fragment: "<item><name>spliced</name><description><keyword>spliced</keyword></description></item>",
	}, &ur)
	if st != http.StatusOK {
		t.Fatalf("/update: status %d", st)
	}
	if ur.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", ur.Epoch)
	}
	if ur.Nodes <= nodesBefore {
		t.Fatalf("nodes = %d after insert, want > %d", ur.Nodes, nodesBefore)
	}
	if len(ur.Views) != 2 {
		t.Fatalf("maintained %d views, want 2", len(ur.Views))
	}
	for _, v := range ur.Views {
		if v.TotalPages <= 0 {
			t.Fatalf("view %s: total_pages = %d", v.View, v.TotalPages)
		}
	}
	if d.Epoch() != 1 {
		t.Fatalf("document epoch = %d, want 1", d.Epoch())
	}

	// Oracle: re-materialize the views from the updated document and run
	// the library evaluation; the served (maintained) results must agree.
	views, err := viewjoin.ParseViews(testViews)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := d.MaterializeViews(views, viewjoin.SchemeLEp)
	if err != nil {
		t.Fatal(err)
	}
	q, err := viewjoin.ParseQuery(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	// PS and IJ are excluded: the test query is a twig, not a path.
	for _, eng := range []string{"VJ", "TS"} {
		e, err := viewjoin.ParseEngine(eng)
		if err != nil {
			t.Fatal(err)
		}
		p, err := viewjoin.Prepare(d, q, fresh, e, nil)
		if err != nil {
			t.Fatalf("%s: oracle prepare: %v", eng, err)
		}
		want, err := p.Run()
		if err != nil {
			t.Fatalf("%s: oracle run: %v", eng, err)
		}
		var qr queryResponse
		if st := post(t, ts, "/query", queryRequest{
			Document: "xmark", Query: testQuery, Engine: eng, Limit: len(want.Matches) + 16,
		}, &qr); st != http.StatusOK {
			t.Fatalf("%s: post-update query: status %d", eng, st)
		}
		if qr.MatchCount != len(want.Matches) {
			t.Fatalf("%s: served %d matches, oracle has %d", eng, qr.MatchCount, len(want.Matches))
		}
		for i, row := range qr.Matches {
			for j, n := range row {
				o := want.Matches[i][j]
				if n != o {
					t.Fatalf("%s: row %d node %d: served %+v, oracle %+v", eng, i, j, n, o)
				}
			}
		}
	}

	m := getMetrics(t, ts)
	if m.Updates.Total != 1 || m.Updates.Maintains != 2 {
		t.Fatalf("update metrics: %+v, want total=1 maintains=2", m.Updates)
	}
}

// TestUpdateStaleCursor pins the pagination contract across an epoch
// change: a cursor issued before an update resumes by document position,
// which the update renumbered, so replaying it must fail cleanly with 410
// Gone — never silently skip or repeat rows — and restarting pagination
// at the new epoch must work.
func TestUpdateStaleCursor(t *testing.T) {
	s, _ := updateTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var page queryResponse
	if st := post(t, ts, "/query", queryRequest{
		Document: "xmark", Query: testQuery, Limit: 2,
	}, &page); st != http.StatusOK {
		t.Fatalf("first page: status %d", st)
	}
	if page.Cursor == "" {
		t.Fatal("first page returned no cursor")
	}

	if st := post(t, ts, "/update", updateRequest{
		Document: "xmark", Op: "insert-before", Target: anyTarget(t, ts),
		Fragment: "<item><name>x</name></item>",
	}, nil); st != http.StatusOK {
		t.Fatalf("/update: status %d", st)
	}

	var er errorResponse
	if st := post(t, ts, "/query", queryRequest{
		Document: "xmark", Query: testQuery, Limit: 2, Cursor: page.Cursor,
	}, &er); st != http.StatusGone {
		t.Fatalf("stale cursor: status %d, want %d (%s)", st, http.StatusGone, er.Error)
	}

	// A fresh pagination at the new epoch proceeds normally.
	var fresh queryResponse
	if st := post(t, ts, "/query", queryRequest{
		Document: "xmark", Query: testQuery, Limit: 2,
	}, &fresh); st != http.StatusOK {
		t.Fatalf("restarted page: status %d", st)
	}
	if fresh.Cursor == "" || fresh.Cursor == page.Cursor {
		t.Fatalf("restarted cursor %q must be fresh (old %q)", fresh.Cursor, page.Cursor)
	}
}

// TestUpdateFileBackedConflict pins the 409 guard: a document serving any
// file-backed view rejects updates before mutating anything — such views
// alias their file's mapping and cannot be maintained in place.
func TestUpdateFileBackedConflict(t *testing.T) {
	s := New(Config{})
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
	dir := t.TempDir()
	path := filepath.Join(dir, "view.vjc")
	if _, err := mviews[0].SaveViewFile(path); err != nil {
		t.Fatal(err)
	}
	if err := s.AddViewFile("xmark", path); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var er errorResponse
	if st := post(t, ts, "/update", updateRequest{
		Document: "xmark", Op: "delete-subtree", Target: 1,
	}, &er); st != http.StatusConflict {
		t.Fatalf("file-backed update: status %d, want %d (%s)", st, http.StatusConflict, er.Error)
	}
	if d.Epoch() != 0 {
		t.Fatalf("document advanced to epoch %d despite the 409", d.Epoch())
	}
}

// TestUpdateRequestErrors walks the failure surface of POST /update.
func TestUpdateRequestErrors(t *testing.T) {
	s, _ := updateTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		req  updateRequest
		want int
	}{
		{"unknown document", updateRequest{Document: "nope", Op: "delete-subtree", Target: 1}, http.StatusNotFound},
		{"bad op", updateRequest{Document: "xmark", Op: "truncate", Target: 1}, http.StatusBadRequest},
		{"missing fragment", updateRequest{Document: "xmark", Op: "insert-before", Target: 1}, http.StatusBadRequest},
		{"bad fragment", updateRequest{Document: "xmark", Op: "append-child", Target: 1, Fragment: "<a><b></a>"}, http.StatusBadRequest},
		{"unknown target", updateRequest{Document: "xmark", Op: "delete-subtree", Target: -7}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		var er errorResponse
		if st := post(t, ts, "/update", tc.req, &er); st != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, st, tc.want, er.Error)
		}
	}
	if resp, err := http.Get(ts.URL + "/update"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /update: status %d", resp.StatusCode)
		}
	}
}

// TestDocumentsEpoch checks that GET /documents reports the document's
// update epoch, before and after an update.
func TestDocumentsEpoch(t *testing.T) {
	s, _ := updateTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	docs := func() []documentInfo {
		resp, err := http.Get(ts.URL + "/documents")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out []documentInfo
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if got := docs(); len(got) != 1 || got[0].Epoch != 0 || got[0].DocPieces != 1 || got[0].Views[0].Pieces != 1 {
		t.Fatalf("before update: %+v, want one flat document with flat views at epoch 0", got)
	}
	if st := post(t, ts, "/update", updateRequest{
		Document: "xmark", Op: "insert-before", Target: anyTarget(t, ts),
		Fragment: "<open_auction><annotation/></open_auction>",
	}, nil); st != http.StatusOK {
		t.Fatalf("/update: status %d", st)
	}
	if got := docs(); len(got) != 1 || got[0].Epoch != 1 || got[0].DocPieces != 3 {
		t.Fatalf("after update: %+v, want epoch 1 and a table of 3 pieces", got)
	}
}

// TestUpdateInvalidatesPlans pins the cache transition: a plan cached
// before the update is dropped (the next request is a miss that
// re-prepares against the maintained views), and the dropped count is
// reported in the update response.
func TestUpdateInvalidatesPlans(t *testing.T) {
	s, _ := updateTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var qr queryResponse
	post(t, ts, "/query", queryRequest{Document: "xmark", Query: testQuery}, &qr)
	if qr.Cache != "miss" {
		t.Fatalf("first query cache = %q, want miss", qr.Cache)
	}
	post(t, ts, "/query", queryRequest{Document: "xmark", Query: testQuery}, &qr)
	if qr.Cache != "hit" {
		t.Fatalf("second query cache = %q, want hit", qr.Cache)
	}

	var ur updateResponse
	if st := post(t, ts, "/update", updateRequest{
		Document: "xmark", Op: "insert-before", Target: anyTarget(t, ts),
		Fragment: "<item><name>y</name></item>",
	}, &ur); st != http.StatusOK {
		t.Fatalf("/update: status %d", st)
	}
	if ur.PlansInvalidated < 1 {
		t.Fatalf("plans_invalidated = %d, want >= 1", ur.PlansInvalidated)
	}

	post(t, ts, "/query", queryRequest{Document: "xmark", Query: testQuery}, &qr)
	if qr.Cache != "miss" {
		t.Fatalf("post-update query cache = %q, want miss (plan must re-prepare)", qr.Cache)
	}
}

// TestUpdateFaultInjection fails the derivation of the k-th view, for each
// k, and holds POST /update to its prepare-then-commit contract: the
// request answers 500 and everything it could have touched — document
// epoch, view epochs and bytes, a cursor in flight, the cached plan — is
// that of before the request. The next update, unobstructed, goes through.
func TestUpdateFaultInjection(t *testing.T) {
	viewBytes := func(mviews []*viewjoin.MaterializedView) [][]byte {
		var out [][]byte
		for _, mv := range mviews {
			var buf bytes.Buffer
			if _, err := mv.SaveView(&buf); err != nil {
				t.Fatal(err)
			}
			out = append(out, buf.Bytes())
		}
		return out
	}
	for k := 0; k < 2; k++ {
		s := New(Config{})
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
		ts := httptest.NewServer(s.Handler())

		var page, next queryResponse
		if st := post(t, ts, "/query", queryRequest{Document: "xmark", Query: testQuery, Limit: 2}, &page); st != http.StatusOK || page.Cursor == "" {
			t.Fatalf("k=%d: first page: status %d, cursor %q", k, st, page.Cursor)
		}
		if st := post(t, ts, "/query", queryRequest{Document: "xmark", Query: testQuery, Limit: 2, Cursor: page.Cursor}, &next); st != http.StatusOK {
			t.Fatalf("k=%d: second page: status %d", k, st)
		}
		before := viewBytes(mviews)
		target := page.Matches[0][len(page.Matches[0])-1].Start

		seen := 0
		s.testFailMaintain = func(view string) error {
			if seen++; seen == k+1 {
				return errors.New("injected derivation failure")
			}
			return nil
		}
		update := updateRequest{
			Document: "xmark", Op: "insert-before", Target: target,
			Fragment: "<item><name/><description><keyword/></description></item>",
		}
		var er errorResponse
		if st := post(t, ts, "/update", update, &er); st != http.StatusInternalServerError || er.Stage != "maintain" {
			t.Fatalf("k=%d: failed update: status %d stage %q (%s)", k, st, er.Stage, er.Error)
		}

		if d.Epoch() != 0 {
			t.Errorf("k=%d: document advanced to epoch %d", k, d.Epoch())
		}
		for i, mv := range mviews {
			if mv.Epoch() != 0 {
				t.Errorf("k=%d: view %d advanced to epoch %d", k, i, mv.Epoch())
			}
		}
		for i, b := range viewBytes(mviews) {
			if !bytes.Equal(b, before[i]) {
				t.Errorf("k=%d: view %d bytes changed", k, i)
			}
		}
		var again queryResponse
		if st := post(t, ts, "/query", queryRequest{Document: "xmark", Query: testQuery, Limit: 2, Cursor: page.Cursor}, &again); st != http.StatusOK {
			t.Fatalf("k=%d: cursor after the failed update: status %d, want it still valid", k, st)
		}
		if again.Cache != "hit" {
			t.Errorf("k=%d: cached plan was dropped by a failed update (cache %q)", k, again.Cache)
		}
		if fmt.Sprint(again.Matches) != fmt.Sprint(next.Matches) {
			t.Errorf("k=%d: the cursor's next page changed across the failed update", k)
		}
		if m := getMetrics(t, ts); m.Updates.Total != 0 || m.Updates.Maintains != 0 || m.Updates.PlanInvalidations != 0 {
			t.Errorf("k=%d: failed update counted: %+v", k, m.Updates)
		}

		s.testFailMaintain = nil
		var ur updateResponse
		if st := post(t, ts, "/update", update, &ur); st != http.StatusOK || ur.Epoch != 1 {
			t.Fatalf("k=%d: update after the failed one: status %d epoch %d", k, st, ur.Epoch)
		}
		ts.Close()
	}
}

// TestUpdateStageTimings checks that the update's two layers and its
// recomputed-record count are reported consistently on the response, on
// /metrics and in the access log.
func TestUpdateStageTimings(t *testing.T) {
	var log bytes.Buffer
	s, _ := updateTestServer(t, Config{AccessLog: &log})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	target := anyTarget(t, ts)
	log.Reset()
	var ur updateResponse
	if st := post(t, ts, "/update", updateRequest{
		Document: "xmark", Op: "insert-before", Target: target,
		Fragment: "<item><name/><description><keyword/><keyword/></description></item>",
	}, &ur); st != http.StatusOK {
		t.Fatalf("/update: status %d", st)
	}
	sum := 0
	for _, v := range ur.Views {
		sum += v.RecomputedEntries
	}
	// <item>, <name> in one view, two <keyword> (and <description>) in the
	// other, plus the chain and boundary records: a handful, not the lists.
	if ur.RecomputedEntries != sum || sum < 5 || sum > 40 {
		t.Errorf("recomputed_entries = %d, views sum to %d, want a handful", ur.RecomputedEntries, sum)
	}
	if ur.ApplyUS <= 0 || ur.MaintainUS < 0 || ur.ApplyUS+ur.MaintainUS > ur.DurationUS {
		t.Errorf("apply_us %d + maintain_us %d do not fit duration_us %d", ur.ApplyUS, ur.MaintainUS, ur.DurationUS)
	}
	m := getMetrics(t, ts).Updates
	if m.ApplyUS != ur.ApplyUS || m.MaintainUS != ur.MaintainUS || m.RecomputedEntries != int64(sum) {
		t.Errorf("metrics %+v disagree with the response (%d, %d, %d)", m, ur.ApplyUS, ur.MaintainUS, sum)
	}
	var line accessLine
	if err := json.Unmarshal(bytes.TrimSpace(log.Bytes()), &line); err != nil {
		t.Fatalf("access log %q: %v", log.String(), err)
	}
	if line.Op != "insert-before" || line.Status != http.StatusOK || line.Outcome != "ok" ||
		line.ApplyUS != ur.ApplyUS || line.MaintainUS != ur.MaintainUS || line.RecomputedEntries != sum {
		t.Errorf("access line %+v disagrees with the response", line)
	}
	// One insert into a flat document: the array before the pivot, the
	// fragment, the array from the pivot on.
	if ur.DocPieces != 3 || line.DocPieces != 3 {
		t.Errorf("doc_pieces = %d in the response, %d in the access line, want 3", ur.DocPieces, line.DocPieces)
	}
	// Both views took records of the fragment into lists they share with
	// the flat records around them.
	most := 0
	for _, v := range ur.Views {
		if v.Pieces < 2 {
			t.Errorf("view %s reports %d pieces after an insert into its lists, want more than 1", v.View, v.Pieces)
		}
		most = max(most, v.Pieces)
	}
	if line.ViewPieces != most {
		t.Errorf("view_pieces = %d in the access line, want the views' largest, %d", line.ViewPieces, most)
	}
}

// TestUpdateAtomicToQueries races queries against a stream of updates.
// Every update invalidates the cached plan, so readers keep re-preparing
// while the writer publishes; with document, views and invalidation
// published under one lock no Prepare can see a view one epoch away from
// the document, so no request may fail — there is no retry to hide it.
func TestUpdateAtomicToQueries(t *testing.T) {
	s, _ := updateTestServer(t, Config{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			path := []string{"/query", "/debug/trace"}[r%2] // plain and traced runs of the cached plan
			for {
				select {
				case <-stop:
					return
				default:
				}
				var er errorResponse
				if st := post(t, ts, path, queryRequest{Document: "xmark", Query: testQuery, Limit: 5}, &er); st != http.StatusOK {
					t.Errorf("%s during updates: status %d (%s)", path, st, er.Error)
					return
				}
			}
		}(r)
	}
	for i := 0; i < 40; i++ {
		req := updateRequest{Document: "xmark", Op: "insert-before", Target: anyTarget(t, ts),
			Fragment: "<item><name/><description><keyword/></description></item>"}
		if i%3 == 2 {
			req = updateRequest{Document: "xmark", Op: "delete-subtree", Target: req.Target}
		}
		if st := post(t, ts, "/update", req, nil); st != http.StatusOK {
			t.Fatalf("update %d: status %d", i, st)
		}
	}
	close(stop)
	wg.Wait()
}

// TestUpdateRefusedIsLogged fills the worker and its queue and reads back
// the access line of an /update that admission control sheds, then of one
// it refuses while draining: like /query, the refusal is logged with its
// outcome and is counted as shed, not as a failure.
func TestUpdateRefusedIsLogged(t *testing.T) {
	var log bytes.Buffer
	s, _ := updateTestServer(t, Config{Workers: 1, QueueDepth: 1, AccessLog: &log})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	up := updateRequest{Document: "xmark", Op: "delete-subtree", Target: anyTarget(t, ts)}

	gate := make(chan struct{})
	started := make(chan struct{}, 2)
	s.testEvalGate = gate
	s.testEvalStarted = func() { started <- struct{}{} }
	inflight := make(chan int, 2)
	query := func() {
		inflight <- post(t, ts, "/query", queryRequest{Document: "xmark", Query: testQuery, Engine: "VJ"}, nil)
	}
	go query()
	<-started // the only worker slot is now held
	go query()
	for i := 0; s.queued.Load() == 0 && i < 2000; i++ {
		time.Sleep(time.Millisecond)
	}
	if s.queued.Load() != 1 {
		close(gate) // let both queries through before failing
		t.Fatal("second query never queued")
	}

	refused := func(wantStatus int, wantOutcome string) {
		t.Helper()
		log.Reset()
		var er errorResponse
		if st := post(t, ts, "/update", up, &er); st != wantStatus || er.Stage != "admission" {
			t.Fatalf("/update: status %d stage %q, want %d at admission", st, er.Stage, wantStatus)
		}
		var line accessLine
		if err := json.Unmarshal(bytes.TrimSpace(log.Bytes()), &line); err != nil {
			t.Fatalf("access log %q: %v", log.String(), err)
		}
		if line.Schema != AccessSchema || line.Outcome != wantOutcome || line.Op != up.Op || line.Status != wantStatus ||
			line.Document != "xmark" || line.Error == "" {
			t.Errorf("access line %+v, want outcome %s for op %s", line, wantOutcome, up.Op)
		}
		if !bytes.Contains(log.Bytes(), []byte(`"duration_us":`)) {
			t.Errorf("access line %q has no duration_us", log.String())
		}
	}
	refused(http.StatusTooManyRequests, "shed")

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	for !getMetrics(t, ts).Requests.Draining { // Drain flips the flag before it blocks
		time.Sleep(time.Millisecond)
	}
	refused(http.StatusServiceUnavailable, "drain")

	close(gate)
	for range 2 {
		if st := <-inflight; st != http.StatusOK {
			t.Fatalf("held or queued query: status %d", st)
		}
	}
	<-drained
	if m := getMetrics(t, ts).Requests; m.Shed != 1 || m.Failures != 0 {
		t.Errorf("shed = %d, failures = %d, want 1 and 0", m.Shed, m.Failures)
	}
	if d := getMetrics(t, ts).Updates; d.Total != 0 {
		t.Errorf("a refused update was applied: %+v", d)
	}
}
