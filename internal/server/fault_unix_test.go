//go:build unix

package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"viewjoin"
)

// TestTruncatedViewFileIsContained: a view file truncated in place under
// the live server — the one thing a validated mapping cannot survive —
// costs the tenant that serves it a 500 at stage "load", on the sequential
// and on the partitioned path, for cached plans and for fresh prepares.
// The tenant next to it, serving files of its own, answers the same bytes
// as before, and the process stays up. (Only a real mapping can fault,
// hence the build tag.)
func TestTruncatedViewFileIsContained(t *testing.T) {
	d := viewjoin.GenerateXMark(0.2)
	s := New(Config{MaxParallel: 2})
	files := map[string][]string{}
	for _, tn := range []string{"damaged", "healthy"} {
		if err := s.AddTenantDocument(tn, "xmark", d); err != nil {
			t.Fatal(err)
		}
		files[tn] = saveTestViews(t, d, testViews, viewjoin.SchemeLEp)
		for _, p := range files[tn] {
			if err := s.AddTenantViewFile(tn, "xmark", p); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	request := func(tn, engine string, parallel int) queryRequest {
		return queryRequest{Tenant: tn, Document: "xmark", Query: testQuery, Engine: engine, Limit: 1 << 20, Parallel: parallel}
	}
	before := map[int]wirePage{}
	for _, k := range []int{1, 2} {
		for _, tn := range []string{"damaged", "healthy"} {
			var pg wirePage
			if code := post(t, ts, "/query", request(tn, "VJ", k), &pg); code != http.StatusOK || pg.MatchCount == 0 {
				t.Fatalf("tenant %s parallel %d before the damage: status %d, %d matches", tn, k, code, pg.MatchCount)
			}
			before[k] = pg
		}
	}
	if before[2].Stats.Partitions != 2 {
		t.Fatalf("parallel 2 ran %d partitions; the test needs worker goroutines to fault", before[2].Stats.Partitions)
	}

	victim := files["damaged"][0]
	if fi, err := os.Stat(victim); err != nil || fi.Size() <= 2*4096 {
		t.Fatalf("fixture %s: %v, or too small to lose pages", victim, err)
	}
	if err := os.Truncate(victim, 4096); err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{1, 2} {
		for _, engine := range []string{"VJ", "TS"} { // a cached plan, a fresh Prepare
			var er errorResponse
			if code := post(t, ts, "/query", request("damaged", engine, k), &er); code != http.StatusInternalServerError || er.Stage != "load" {
				t.Errorf("damaged tenant, %s parallel %d: status %d stage %q (%s), want 500 at load", engine, k, code, er.Stage, er.Error)
			}
		}
		var pg wirePage
		if code := post(t, ts, "/query", request("healthy", "VJ", k), &pg); code != http.StatusOK || !pg.equal(before[k]) {
			t.Errorf("healthy tenant, parallel %d: status %d, or bytes changed (%d vs %d matches)", k, code, pg.MatchCount, before[k].MatchCount)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz after the faults: status %d", resp.StatusCode)
	}
	if m := getMetrics(t, ts); m.Requests.Failures != 4 {
		t.Errorf("failures = %d, want the 4 faulted requests", m.Requests.Failures)
	}
}
