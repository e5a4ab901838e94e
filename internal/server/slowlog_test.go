package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func slowEntry(query string, wallUS int64) accessLine {
	return accessLine{Query: query, DurationUS: wallUS, Outcome: "ok"}
}

// TestSlowlogRecentEviction pins the ring's retention and order: with size
// 3 and five observations, the snapshot's recent list holds exactly the
// last three, newest first.
func TestSlowlogRecentEviction(t *testing.T) {
	l := newSlowlog(3)
	for i := 1; i <= 5; i++ {
		l.observe(slowEntry(fmt.Sprintf("q%d", i), int64(i)))
	}
	s := l.snapshot()
	if s.Observed != 5 {
		t.Errorf("observed %d, want 5", s.Observed)
	}
	var got []string
	for _, e := range s.Recent {
		got = append(got, e.Query)
	}
	want := []string{"q5", "q4", "q3"}
	if len(got) != len(want) {
		t.Fatalf("recent %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recent %v, want %v", got, want)
		}
	}
}

// TestSlowlogSlowestRanking pins the slow set: capped at size, ordered by
// wall time descending, admitting a new entry only when it outranks the
// current minimum.
func TestSlowlogSlowestRanking(t *testing.T) {
	l := newSlowlog(3)
	for _, us := range []int64{10, 50, 20, 40, 30, 5} {
		l.observe(slowEntry("q", us))
	}
	s := l.snapshot()
	var got []int64
	for _, e := range s.Slowest {
		got = append(got, e.DurationUS)
	}
	want := []int64{50, 40, 30}
	if len(got) != len(want) {
		t.Fatalf("slowest %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slowest %v, want %v", got, want)
		}
	}
}

// TestSlowlogConcurrent hammers observe and snapshot from many goroutines;
// the -race run is the real assertion, the totals check catches lost
// updates.
func TestSlowlogConcurrent(t *testing.T) {
	l := newSlowlog(8)
	const workers, each = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.observe(slowEntry("q", int64(w*each+i)))
				if i%25 == 0 {
					_ = l.snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := l.snapshot()
	if s.Observed != workers*each {
		t.Errorf("observed %d, want %d", s.Observed, workers*each)
	}
	if len(s.Recent) != 8 || len(s.Slowest) != 8 {
		t.Errorf("recent %d / slowest %d entries, want 8 / 8", len(s.Recent), len(s.Slowest))
	}
	// The slowest set must hold the true top-8 wall times.
	for i, e := range s.Slowest {
		if want := int64(workers*each - 1 - i); e.DurationUS != want {
			t.Errorf("slowest[%d] = %d, want %d", i, e.DurationUS, want)
		}
	}
}

func getSlowlog(t testing.TB, ts *httptest.Server) slowlogSnapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/slowlog status %d", resp.StatusCode)
	}
	var s slowlogSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSlowlogEndpoint drives a deliberately slow query through the server
// and reads its access line back from /debug/slowlog, stage clocks and no
// trace: the request is held at the evaluation gate, so its wall time
// ranks it first in the slow set, ahead of a second, unheld request.
func TestSlowlogEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	s.testEvalGate = gate
	s.testEvalStarted = func() { started <- struct{}{} }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := queryRequest{Document: "xmark", Query: testQuery, Engine: "VJ"}
	done := make(chan queryResponse, 1)
	go func() {
		var r queryResponse
		if st := post(t, ts, "/query", req, &r); st != http.StatusOK {
			t.Errorf("slow request: status %d", st)
		}
		done <- r
	}()
	<-started
	time.Sleep(25 * time.Millisecond) // hold it well past an unheld run
	gate <- struct{}{}
	slowResp := <-done

	// A /query runs untraced: only /debug/trace embeds a report.
	if slowResp.Trace != nil {
		t.Error("a /query response embeds a trace; only /debug/trace may")
	}

	// A second, unheld request: it enters both lists, ranked below the
	// held one.
	s.testEvalGate = nil
	var fast queryResponse
	if st := post(t, ts, "/query", req, &fast); st != http.StatusOK {
		t.Fatalf("fast request: status %d", st)
	}

	log := getSlowlog(t, ts)
	if log.Schema != SlowlogSchema {
		t.Errorf("schema %q, want %q", log.Schema, SlowlogSchema)
	}
	if log.Observed != 2 || len(log.Recent) != 2 {
		t.Fatalf("observed %d, recent %d; want 2, 2", log.Observed, len(log.Recent))
	}
	if log.Size != slowlogSize || len(log.Slowest) != 2 {
		t.Fatalf("size %d, slowest holds %d entries; want %d and both requests: %+v", log.Size, len(log.Slowest), slowlogSize, log.Slowest)
	}
	e := log.Slowest[0]
	if e.Query != testQuery || e.Outcome != "ok" || e.Status != http.StatusOK {
		t.Errorf("slow entry identity: %+v", e)
	}
	if e.DurationUS < 25_000 || log.Slowest[1].DurationUS > e.DurationUS {
		t.Errorf("slow set walls %dµs, %dµs; want the held request first, at >= 25ms", e.DurationUS, log.Slowest[1].DurationUS)
	}
	// The first request prepared its plan; its clocks are disjoint stages
	// of its wall time, the gate's hold in none of them.
	if e.Cache != "miss" || e.PlanUS <= 0 || e.RunUS <= 0 || e.WaitUS < 0 {
		t.Errorf("slow entry clocks: cache %q wait %dµs plan %dµs run %dµs; want a miss with plan and run > 0",
			e.Cache, e.WaitUS, e.PlanUS, e.RunUS)
	}
	if sum := e.WaitUS + e.PlanUS + e.RunUS; sum > e.DurationUS {
		t.Errorf("wait+plan+run = %dµs exceeds the wall time %dµs", sum, e.DurationUS)
	}
	resp, err := http.Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(body, []byte(`"trace"`)) || !bytes.Contains(body, []byte(`"wait_us":`)) ||
		!bytes.Contains(body, []byte(`"plan_us":`)) {
		t.Errorf("/debug/slowlog entries carry a trace or lack the stage clocks: %s", body)
	}
}

// TestSlowlogFailureNamesPlan pins a failed run's slowlog entry to its
// plan: a request spelled loosely and naming no engine, held past its
// deadline, is recorded under the canonical query and the engine it
// resolved to, as a successful run of the same plan is.
func TestSlowlogFailureNamesPlan(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	s.testEvalGate = gate
	s.testEvalStarted = func() { started <- struct{}{} }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		done <- post(t, ts, "/query", queryRequest{Document: "xmark", Query: testQuery + "  ", TimeoutMS: 5}, nil)
	}()
	<-started
	time.Sleep(20 * time.Millisecond)
	gate <- struct{}{}
	if st := <-done; st != http.StatusGatewayTimeout {
		t.Fatalf("held request: status %d, want 504", st)
	}
	log := getSlowlog(t, ts)
	if len(log.Recent) != 1 {
		t.Fatalf("recent holds %d entries, want the failed request", len(log.Recent))
	}
	if e := log.Recent[0]; e.Query != testQuery || e.Engine != "VJ" || e.Outcome != "timeout" || e.Status != http.StatusGatewayTimeout {
		t.Errorf("failed entry: query %q engine %q outcome %q status %d; want %q VJ timeout 504",
			e.Query, e.Engine, e.Outcome, e.Status, testQuery)
	}
}

// TestSlowlogEmptyLists pins a fresh server's /debug/slowlog body: both
// lists are empty arrays, not null, so a client iterating either of them
// needs no special case before the first slow request.
func TestSlowlogEmptyLists(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"slowest":[]`, `"recent":[]`} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("fresh /debug/slowlog body lacks %s: %s", want, body)
		}
	}
}
