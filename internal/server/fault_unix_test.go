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
// costs the document it serves a 500 at stage "load", for cached plans and
// for fresh prepares. The document next to it, serving files of its own,
// answers the same bytes as before, and the process stays up. (Only a real
// mapping can fault, hence the build tag.)
func TestTruncatedViewFileIsContained(t *testing.T) {
	d := viewjoin.GenerateXMark(0.2)
	s := New(Config{})
	files := map[string][]string{}
	for _, dn := range []string{"damaged", "healthy"} {
		if err := s.AddDocument(dn, d); err != nil {
			t.Fatal(err)
		}
		files[dn] = saveTestViews(t, d, testViews, viewjoin.SchemeLEp)
		for _, p := range files[dn] {
			if err := s.AddViewFile(dn, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	request := func(dn, engine string) queryRequest {
		return queryRequest{Document: dn, Query: testQuery, Engine: engine, Limit: 1 << 20}
	}
	var before wirePage
	for _, dn := range []string{"damaged", "healthy"} {
		var pg wirePage
		if code := post(t, ts, "/query", request(dn, "VJ"), &pg); code != http.StatusOK || pg.MatchCount == 0 {
			t.Fatalf("document %s before the damage: status %d, %d matches", dn, code, pg.MatchCount)
		}
		before = pg
	}

	victim := files["damaged"][0]
	if fi, err := os.Stat(victim); err != nil || fi.Size() <= 2*4096 {
		t.Fatalf("fixture %s: %v, or too small to lose pages", victim, err)
	}
	if err := os.Truncate(victim, 4096); err != nil {
		t.Fatal(err)
	}

	for _, engine := range []string{"VJ", "TS"} { // a cached plan, a fresh Prepare
		var er errorResponse
		if code := post(t, ts, "/query", request("damaged", engine), &er); code != http.StatusInternalServerError || er.Stage != "load" {
			t.Errorf("damaged document, %s: status %d stage %q (%s), want 500 at load", engine, code, er.Stage, er.Error)
		}
	}
	var pg wirePage
	if code := post(t, ts, "/query", request("healthy", "VJ"), &pg); code != http.StatusOK || !pg.equal(before) {
		t.Errorf("healthy document: status %d, or bytes changed (%d vs %d matches)", code, pg.MatchCount, before.MatchCount)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz after the faults: status %d", resp.StatusCode)
	}
	if m := getMetrics(t, ts); m.Requests.Failures != 2 {
		t.Errorf("failures = %d, want the 2 faulted requests", m.Requests.Failures)
	}
}
