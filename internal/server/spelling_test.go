package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestSpellingIndex pins the plan cache's raw-spelling index: a request
// that names its views and is spelled as one that resolved before finds its
// plan without parsing (a hit like any other), every spelling of one plan
// shares its entry, the index is bounded per plan, a request that names no
// views is never indexed, and the spellings go when their plan does — by
// eviction and by an update's invalidation.
func TestSpellingIndex(t *testing.T) {
	s, _ := updateTestServer(t, Config{CacheSize: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	views := strings.Split(testViews, "; ")
	ask := func(q string, vs []string) queryResponse {
		t.Helper()
		var r queryResponse
		if st := post(t, ts, "/query", queryRequest{Document: "xmark", Query: q, Views: vs, Limit: 3}, &r); st != http.StatusOK {
			t.Fatalf("%q: status %d", q, st)
		}
		return r
	}
	// indexed counts the raw index's keys, and those among them of key k.
	indexed := func(k rawKey) (n, ofKey int) {
		s.cache.mu.Lock()
		defer s.cache.mu.Unlock()
		if e := s.cache.raw[k]; e != nil {
			ofKey = len(e.spellings)
		}
		return len(s.cache.raw), ofKey
	}
	plain := rawKey{doc: "xmark", query: testQuery, nviews: 2, views: strings.Join(views, ";")}
	first := ask(testQuery, views)
	if n, _ := indexed(plain); first.Cache != "miss" || n != 1 {
		t.Fatalf("first request: cache %q, %d spellings indexed; want a miss that indexes 1", first.Cache, n)
	}
	again := ask(testQuery, views)
	if again.Cache != "hit" || fmt.Sprint(again.Matches) != fmt.Sprint(first.Matches) ||
		again.Query != first.Query || fmt.Sprint(again.Views) != fmt.Sprint(first.Views) {
		t.Fatalf("same spelling: cache %q, query %q views %v; want the first answer (%q %v) as a hit",
			again.Cache, again.Query, again.Views, first.Query, first.Views)
	}
	// Other spellings of the same plan — padded, views reversed — share the
	// entry; past maxSpellings they still answer, unindexed.
	for i := 0; i < maxSpellings+3; i++ {
		if r := ask(testQuery+strings.Repeat(" ", i+1), []string{views[1], " " + views[0]}); r.Cache != "hit" {
			t.Fatalf("respelling %d: cache %q, want hit", i, r.Cache)
		}
	}
	if n, ofPlan := indexed(plain); len(s.cache.entries()) != 1 || n != maxSpellings || ofPlan != maxSpellings {
		t.Fatalf("%d plans, %d spellings indexed, %d to the plan; want 1 plan holding %d", len(s.cache.entries()), n, ofPlan, maxSpellings)
	}
	r := ask(testQuery+strings.Repeat(" ", maxSpellingBytes), views)
	if n, _ := indexed(plain); r.Cache != "hit" || n != maxSpellings {
		t.Fatalf("padded spelling: cache %q, %d spellings indexed; want an unindexed hit", r.Cache, n)
	}
	hits, misses, _, _, _ := s.cache.stats()
	if want := int64(maxSpellings + 5); hits != want || misses != 1 {
		t.Fatalf("plan_cache counts %d hits %d misses, want %d and 1", hits, misses, want)
	}
	// A spelling that does not parse is not confused with one that does.
	var er errorResponse
	if st := post(t, ts, "/query", queryRequest{Document: "xmark", Query: testQuery, Views: []string{strings.Join(views, ";")}}, &er); st != http.StatusBadRequest {
		t.Fatalf("views joined into one name: status %d, want 400", st)
	}
	// Naming no views means all registered views: never indexed.
	ask(testQuery, nil)
	if n, _ := indexed(plain); n != maxSpellings {
		t.Fatalf("a request without views indexed a spelling (%d)", n)
	}

	// An update drops the document's plans and their spellings with them.
	var ur updateResponse
	if st := post(t, ts, "/update", updateRequest{Document: "xmark", Op: "insert-before", Target: anyTarget(t, ts),
		Fragment: "<item><name>y</name></item>"}, &ur); st != http.StatusOK {
		t.Fatalf("/update: status %d", st)
	}
	if n, _ := indexed(plain); n != 0 {
		t.Fatalf("%d spellings survive the update's invalidation", n)
	}
	if r := ask(testQuery, views); r.Cache != "miss" {
		t.Fatalf("after the update: cache %q, want a miss that re-prepares", r.Cache)
	}
	// So does eviction: two more plans push the first out of a 2-plan cache.
	for _, eng := range []string{"TS", "PS"} {
		req := queryRequest{Document: "xmark", Query: "//site//item//name", Engine: eng, Views: views[:1]}
		if st := post(t, ts, "/query", req, nil); st != http.StatusOK {
			t.Fatalf("%s plan: status %d", eng, st)
		}
	}
	if n, stale := indexed(plain); n != 2 || stale != 0 {
		t.Fatalf("%d spellings indexed after the eviction (%d of the evicted plan), want the 2 residents'", n, stale)
	}
}
