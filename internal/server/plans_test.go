package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func getPlans(t testing.TB, ts *httptest.Server) plansResponse {
	t.Helper()
	var p plansResponse
	getPlansInto(t, ts, &p)
	return p
}

// getPlansInto decodes the /debug/plans body into v.
func getPlansInto(t testing.TB, ts *httptest.Server, v any) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/debug/plans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/plans status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// objectKeys returns the keys of the JSON object obj in wire order.
func objectKeys(t testing.TB, obj json.RawMessage) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(obj))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %s", obj)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

func findPlan(rows []planRow, engine string) *planRow {
	for i := range rows {
		if rows[i].Engine == engine {
			return &rows[i]
		}
	}
	return nil
}

// TestPlanAggregates pins the per-plan observability contract: every
// resident cache entry appears on /debug/plans with its run count, latency
// quantiles, footprint and full summed counter record, and successful runs
// and failures fold into the right entry.
func TestPlanAggregates(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := queryRequest{Document: "xmark", Query: testQuery, Engine: "VJ"}
	const vjRuns = 3
	var matchCount int
	for i := 0; i < vjRuns; i++ {
		var r queryResponse
		if st := post(t, ts, "/query", req, &r); st != http.StatusOK {
			t.Fatalf("VJ run %d: status %d", i, st)
		}
		matchCount = r.MatchCount
	}
	tsReq := req
	tsReq.Engine = "TS"
	if st := post(t, ts, "/query", tsReq, nil); st != http.StatusOK {
		t.Fatalf("TS run: status %d", st)
	}

	// One deadline expiry against the cached VJ plan: counted as an error
	// on that plan's aggregate, not as a run.
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	s.testEvalGate = gate
	s.testEvalStarted = func() { started <- struct{}{} }
	timeoutReq := req
	timeoutReq.TimeoutMS = 5
	done := make(chan int, 1)
	go func() {
		done <- post(t, ts, "/query", timeoutReq, nil)
	}()
	<-started
	time.Sleep(20 * time.Millisecond)
	gate <- struct{}{}
	if st := <-done; st != http.StatusGatewayTimeout {
		t.Fatalf("timeout request: status %d, want 504", st)
	}
	s.testEvalGate = nil

	m := getMetrics(t, ts)
	if m.UptimeMS < 0 {
		t.Errorf("uptime_ms %d, want >= 0", m.UptimeMS)
	}
	if m.PlanCache.FootprintBytes <= 0 {
		t.Errorf("plan cache footprint %d, want > 0", m.PlanCache.FootprintBytes)
	}
	// The engine-level latency histograms now report quantiles.
	if h, ok := m.LatencyUS["VJ"]; !ok || h.N != vjRuns || h.P50 <= 0 {
		t.Errorf("engine latency histogram: %+v", m.LatencyUS["VJ"])
	}
	// Partition accounting: all four successful runs were sequential.
	if m.Partitions.N != vjRuns+1 || m.Partitions.Max != 1 {
		t.Errorf("partitions histogram N=%d Max=%d, want N=%d Max=1", m.Partitions.N, m.Partitions.Max, vjRuns+1)
	}
	if m.Requests.Timeouts != 1 || m.Requests.Canceled != 0 {
		t.Errorf("timeouts=%d canceled=%d, want 1, 0", m.Requests.Timeouts, m.Requests.Canceled)
	}

	p := getPlans(t, ts)
	if p.Schema != PlansSchema {
		t.Errorf("plans schema %q, want %q", p.Schema, PlansSchema)
	}
	if len(p.Plans) != 2 {
		t.Fatalf("/debug/plans has %d rows, want one per cache entry (2): %+v", len(p.Plans), p.Plans)
	}
	vj := findPlan(p.Plans, "VJ")
	if vj == nil {
		t.Fatal("no VJ row on /debug/plans")
	}
	if vj.Runs != vjRuns {
		t.Errorf("VJ runs %d, want %d", vj.Runs, vjRuns)
	}
	if vj.Errors != 1 {
		t.Errorf("VJ errors %d, want 1 (the deadline expiry)", vj.Errors)
	}
	if vj.LatencyUS.N != vjRuns {
		t.Errorf("VJ latency N %d, want %d", vj.LatencyUS.N, vjRuns)
	}
	if vj.LatencyUS.P50 <= 0 || vj.LatencyUS.P99 < vj.LatencyUS.P50 {
		t.Errorf("VJ latency quantiles implausible: %+v", vj.LatencyUS)
	}
	if vj.FootprintBytes <= 0 {
		t.Errorf("VJ footprint %d, want > 0", vj.FootprintBytes)
	}
	if tsRow := findPlan(p.Plans, "TS"); tsRow == nil || tsRow.Runs != 1 {
		t.Errorf("TS row missing or wrong runs: %+v", tsRow)
	}
	if vj.Counters.ElementsScanned <= 0 {
		t.Errorf("VJ summed elements_scanned %d, want > 0", vj.Counters.ElementsScanned)
	}
	if want := int64(vjRuns * matchCount); vj.Counters.Matches != want {
		t.Errorf("VJ summed matches %d, want %d", vj.Counters.Matches, want)
	}
	// The counter record's wire keys, read from the raw body: decoding into
	// the Go struct would let a renamed key pass as a zero field.
	var raw struct {
		Plans []struct {
			Counters json.RawMessage `json:"counters"`
		} `json:"plans"`
	}
	getPlansInto(t, ts, &raw)
	const wantKeys = "elements_scanned, comparisons, pointer_derefs, pages_read, pages_written, jumps_taken, jumps_refused, matches"
	for i, pl := range raw.Plans {
		if got := strings.Join(objectKeys(t, pl.Counters), ", "); got != wantKeys {
			t.Errorf("plan %d counters keys:\n got  %s\n want %s", i, got, wantKeys)
		}
	}
}
