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
	l := newSlowlog(3, 0)
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
	l := newSlowlog(3, 0)
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

// TestSlowlogThreshold verifies the admission split: every request enters
// the recent ring, but only those at or above the threshold compete for
// the slow set.
func TestSlowlogThreshold(t *testing.T) {
	l := newSlowlog(4, 10*time.Millisecond)
	l.observe(slowEntry("fast", 500))      // 0.5ms: below threshold
	l.observe(slowEntry("slow", 20_000))   // 20ms: above
	l.observe(slowEntry("border", 10_000)) // exactly 10ms: admitted
	l.observe(slowEntry("fast2", 9_999))   // just below
	s := l.snapshot()
	if len(s.Recent) != 4 {
		t.Errorf("recent holds %d entries, want all 4", len(s.Recent))
	}
	if len(s.Slowest) != 2 {
		t.Fatalf("slowest holds %d entries, want 2 (threshold-filtered): %+v", len(s.Slowest), s.Slowest)
	}
	if s.Slowest[0].Query != "slow" || s.Slowest[1].Query != "border" {
		t.Errorf("slowest order: %q, %q; want slow, border", s.Slowest[0].Query, s.Slowest[1].Query)
	}
	if s.ThresholdMS != 10 {
		t.Errorf("threshold_ms %d, want 10", s.ThresholdMS)
	}
}

// TestSlowlogConcurrent hammers observe and snapshot from many goroutines;
// the -race run is the real assertion, the totals check catches lost
// updates.
func TestSlowlogConcurrent(t *testing.T) {
	l := newSlowlog(8, 0)
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

// TestSlowlogEndpoint drives a deliberately slow query through a
// slowlog-enabled server and reads its access line back from
// /debug/slowlog, stage clocks and no trace: the request is held at the
// evaluation gate past the threshold, so its wall time admits it to the
// slow set while a second, unheld request stays out of it.
func TestSlowlogEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, SlowlogSize: 4, SlowlogThreshold: 10 * time.Millisecond})
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
	time.Sleep(25 * time.Millisecond) // hold past the 10ms threshold
	gate <- struct{}{}
	slowResp := <-done

	// A /query runs untraced: only /debug/trace embeds a report.
	if slowResp.Trace != nil {
		t.Error("slowlog-enabled /query response embeds a trace; only /debug/trace may")
	}

	// A second, unheld request: lands in recent but (being fast) not in
	// the slow set.
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
	if len(log.Slowest) != 1 {
		t.Fatalf("slowest holds %d entries, want exactly the held request: %+v", len(log.Slowest), log.Slowest)
	}
	e := log.Slowest[0]
	if e.Query != testQuery || e.Outcome != "ok" || e.Status != http.StatusOK {
		t.Errorf("slow entry identity: %+v", e)
	}
	if e.DurationUS < 10_000 {
		t.Errorf("slow entry wall %dµs, want >= threshold 10ms", e.DurationUS)
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
	s := newTestServer(t, Config{Workers: 1, SlowlogSize: 4})
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

// TestSlowlogDisabled pins the default: no SlowlogSize means no recorder,
// and a 404 on the endpoint.
func TestSlowlogDisabled(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/slowlog status %d with recorder disabled, want 404", resp.StatusCode)
	}
}
