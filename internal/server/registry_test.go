package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"viewjoin"
)

// saveTestViews materializes the view set and saves each view to a
// container file, returning the paths in view order.
func saveTestViews(t testing.TB, d *viewjoin.Document, viewsStr string, scheme viewjoin.StorageScheme) []string {
	t.Helper()
	views, err := viewjoin.ParseViews(viewsStr)
	if err != nil {
		t.Fatal(err)
	}
	mviews, err := d.MaterializeViews(views, scheme)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths := make([]string, len(mviews))
	for i, mv := range mviews {
		var buf bytes.Buffer
		if _, err := mv.SaveView(&buf); err != nil {
			t.Fatal(err)
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("view-%d.vjst", i))
		if err := os.WriteFile(paths[i], buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// newFileBackedServer builds a server whose views are all registered from
// files (residency-managed) for the default tenant's "xmark" document.
func newFileBackedServer(t testing.TB, cfg Config, paths []string) *Server {
	t.Helper()
	s := New(cfg)
	if err := s.AddDocument("xmark", viewjoin.GenerateXMark(0.05)); err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if err := s.AddViewFile("xmark", p); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// viewFootprints reports the total and maximum page footprint of the
// saved view files as the server accounts them.
func viewFootprints(t testing.TB, d *viewjoin.Document, paths []string) (total, max int64) {
	t.Helper()
	for _, p := range paths {
		mv, err := d.OpenView(p)
		if err != nil {
			t.Fatal(err)
		}
		fp := mv.FootprintBytes()
		total += fp
		if fp > max {
			max = fp
		}
		mv.Release()
	}
	return total, max
}

// TestResidencyCappedByteIdentical is the acceptance criterion of the
// tiering layer: a server whose resident-bytes cap is far below the total
// view footprint — so some views are served cold through mappings, with
// promotions and demotions happening mid-sequence — must return responses
// byte-identical to a fully resident server, for the same request
// sequence. Residency is a cost decision, never a result decision.
func TestResidencyCappedByteIdentical(t *testing.T) {
	d := viewjoin.GenerateXMark(0.05)
	paths := saveTestViews(t, d, testViews, viewjoin.SchemeLEp)
	_, maxFP := viewFootprints(t, d, paths)

	warm := newFileBackedServer(t, Config{}, paths)
	capped := newFileBackedServer(t, Config{MaxResidentBytes: maxFP}, paths)
	defer warm.Close()
	defer capped.Close()
	tsWarm := httptest.NewServer(warm.Handler())
	tsCapped := httptest.NewServer(capped.Handler())
	defer tsWarm.Close()
	defer tsCapped.Close()

	// The sequence alternates between the two single-view queries (each
	// answerable from one view, forcing per-view acquire churn) and the
	// combined query, several rounds so cold views cross the promotion
	// threshold and evict each other.
	type step struct {
		query string
		views []string
	}
	seq := []step{
		{"//site//item//name", []string{"//site//item//name"}},
		{"//description//keyword", []string{"//description//keyword"}},
		{testQuery, nil},
		{"//description//keyword", []string{"//description//keyword"}},
		{"//site//item//name", []string{"//site//item//name"}},
		{"//site//item//name", []string{"//site//item//name"}},
		{"//description//keyword", []string{"//description//keyword"}},
		{testQuery, nil},
	}
	for i, st := range seq {
		req := queryRequest{Document: "xmark", Query: st.query, Views: st.views, Limit: 100000}
		var a, b queryResponse
		if code := post(t, tsWarm, "/query", req, &a); code != http.StatusOK {
			t.Fatalf("step %d: warm status %d", i, code)
		}
		if code := post(t, tsCapped, "/query", req, &b); code != http.StatusOK {
			t.Fatalf("step %d: capped status %d", i, code)
		}
		ja, _ := json.Marshal(a.Matches)
		jb, _ := json.Marshal(b.Matches)
		if a.MatchCount != b.MatchCount || !bytes.Equal(ja, jb) {
			t.Fatalf("step %d (%s): capped server diverged: %d vs %d matches",
				i, st.query, a.MatchCount, b.MatchCount)
		}
	}

	m := getMetrics(t, tsCapped)
	r := m.Residency
	if r.CapBytes != maxFP {
		t.Errorf("cap_bytes = %d, want %d", r.CapBytes, maxFP)
	}
	if r.ResidentBytes > r.CapBytes {
		t.Errorf("resident_bytes %d exceeds cap %d", r.ResidentBytes, r.CapBytes)
	}
	if r.ColdHits == 0 {
		t.Error("capped run recorded no cold hits")
	}
	if r.Promotions == 0 || r.Demotions == 0 {
		t.Errorf("capped run recorded %d promotions, %d demotions; want both > 0", r.Promotions, r.Demotions)
	}
	if r.PlanEvictions == 0 {
		t.Error("tier changes invalidated no cached plans")
	}
	mw := getMetrics(t, tsWarm).Residency
	if mw.ColdHits != 0 || mw.Demotions != 0 || mw.WarmViews != len(paths) {
		t.Errorf("uncapped server tiered anyway: %+v", mw)
	}
}

// TestResidencyPlanInvalidation pins the demotion -> plan-cache contract:
// demoting a view drops every cached plan over it, so the next request
// for that plan is a miss that re-prepares against the view's current
// tier.
func TestResidencyPlanInvalidation(t *testing.T) {
	d := viewjoin.GenerateXMark(0.05)
	paths := saveTestViews(t, d, testViews, viewjoin.SchemeLEp)
	_, maxFP := viewFootprints(t, d, paths)
	s := newFileBackedServer(t, Config{MaxResidentBytes: maxFP}, paths)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reqA := queryRequest{Document: "xmark", Query: "//site//item//name", Views: []string{"//site//item//name"}}
	reqB := queryRequest{Document: "xmark", Query: "//description//keyword", Views: []string{"//description//keyword"}}

	// Warm A's plan (registration admitted the first view warm), then hit it.
	var resp queryResponse
	post(t, ts, "/query", reqA, &resp)
	post(t, ts, "/query", reqA, &resp)
	if resp.Cache != "hit" {
		t.Fatalf("second A request: cache %q, want hit", resp.Cache)
	}
	// Drive B past the promotion threshold; with cap == max footprint its
	// promotion must demote A, invalidating A's cached plan.
	post(t, ts, "/query", reqB, &resp)
	post(t, ts, "/query", reqB, &resp)
	m := getMetrics(t, ts)
	if m.Residency.Demotions == 0 {
		t.Fatalf("promotion of B did not demote A: %+v", m.Residency)
	}
	if m.Residency.PlanEvictions == 0 {
		t.Fatal("demotion invalidated no cached plans")
	}
	post(t, ts, "/query", reqA, &resp)
	if resp.Cache != "miss" {
		t.Errorf("A after demotion: cache %q, want miss (plan invalidated)", resp.Cache)
	}
	if resp.MatchCount == 0 {
		t.Error("A after demotion returned no matches")
	}
}

// TestResidencyConcurrentChurn exercises the tiering lock under -race:
// many goroutines querying across two tenants with a cap that forces
// continuous promote/demote churn. Every request must succeed with the
// correct result; the final accounting must balance. The admission queue
// holds every client, so which of them find the four workers busy — a
// matter of core count and scheduling — decides who waits, never who is
// shed.
func TestResidencyConcurrentChurn(t *testing.T) {
	d := viewjoin.GenerateXMark(0.05)
	paths := saveTestViews(t, d, testViews, viewjoin.SchemeLEp)
	_, maxFP := viewFootprints(t, d, paths)

	const workers, rounds = 8, 20
	s := New(Config{MaxResidentBytes: maxFP, Workers: 4, QueueDepth: workers})
	for _, tn := range []string{"alpha", "beta"} {
		if err := s.AddTenantDocument(tn, "xmark", d); err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			if err := s.AddTenantViewFile(tn, "xmark", p); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	want := map[string]int{}
	for _, q := range []string{"//site//item//name", "//description//keyword"} {
		res := viewjoin.EvaluateDirect(d, viewjoin.MustParseQuery(q))
		want[q] = len(res.Matches)
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenants := []string{"alpha", "beta"}
			queries := []string{"//site//item//name", "//description//keyword"}
			for i := 0; i < rounds; i++ {
				tn := tenants[(w+i)%2]
				q := queries[(w+i/2)%2]
				req := queryRequest{Tenant: tn, Document: "xmark", Query: q, Views: []string{q}}
				var resp queryResponse
				if code := post(t, ts, "/query", req, &resp); code != http.StatusOK {
					errs <- fmt.Errorf("worker %d round %d: status %d", w, i, code)
					return
				}
				if resp.MatchCount != want[q] {
					errs <- fmt.Errorf("worker %d round %d: %d matches, want %d", w, i, resp.MatchCount, want[q])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := getMetrics(t, ts)
	if m.Requests.Shed != 0 || m.Requests.Total != workers*rounds {
		t.Errorf("requests: %d total, %d shed; want %d served, none shed", m.Requests.Total, m.Requests.Shed, workers*rounds)
	}
	r := m.Residency
	if r.ResidentBytes > r.CapBytes {
		t.Errorf("resident_bytes %d exceeds cap %d", r.ResidentBytes, r.CapBytes)
	}
	if r.WarmHits+r.ColdHits == 0 {
		t.Error("no view accesses recorded")
	}
	if r.Tenants != 2 {
		t.Errorf("tenants = %d, want 2", r.Tenants)
	}
}

// TestTenantIsolation: two tenants registering the same document name get
// fully separate registries — separate documents, separate views,
// separate plan-cache entries — and an unregistered tenant is a 404.
func TestTenantIsolation(t *testing.T) {
	s := New(Config{})
	dA := viewjoin.GenerateXMark(0.05)
	dB := viewjoin.GenerateNasa(60)
	if err := s.AddTenantDocument("a", "doc", dA); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTenantDocument("b", "doc", dB); err != nil {
		t.Fatal(err)
	}
	for _, reg := range []struct {
		tn    string
		d     *viewjoin.Document
		views string
	}{{"a", dA, testViews}, {"b", dB, "//field//para"}} {
		for _, p := range saveTestViews(t, reg.d, reg.views, viewjoin.SchemeLEp) {
			if err := s.AddTenantViewFile(reg.tn, "doc", p); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wantA := len(viewjoin.EvaluateDirect(dA, viewjoin.MustParseQuery("//site//item//name")).Matches)
	wantB := len(viewjoin.EvaluateDirect(dB, viewjoin.MustParseQuery("//field//para")).Matches)

	var resp queryResponse
	if code := post(t, ts, "/query",
		queryRequest{Tenant: "a", Document: "doc", Query: "//site//item//name", Views: []string{"//site//item//name"}},
		&resp); code != http.StatusOK || resp.MatchCount != wantA {
		t.Fatalf("tenant a: status %d, %d matches (want %d)", code, resp.MatchCount, wantA)
	}
	if code := post(t, ts, "/query",
		queryRequest{Tenant: "b", Document: "doc", Query: "//field//para", Views: []string{"//field//para"}},
		&resp); code != http.StatusOK || resp.MatchCount != wantB {
		t.Fatalf("tenant b: status %d, %d matches (want %d)", code, resp.MatchCount, wantB)
	}
	// Tenant b has no //site//item//name view; the cross-tenant ask must
	// fail at resolve rather than leak a's registry.
	var e errorResponse
	if code := post(t, ts, "/query",
		queryRequest{Tenant: "b", Document: "doc", Query: "//site//item//name", Views: []string{"//site//item//name"}},
		&e); code != http.StatusNotFound {
		t.Fatalf("cross-tenant view: status %d, want 404", code)
	}
	if code := post(t, ts, "/query",
		queryRequest{Tenant: "nobody", Document: "doc", Query: "//field//para"}, &e); code != http.StatusNotFound {
		t.Fatalf("unknown tenant: status %d, want 404", code)
	}
}

// TestResidencyColdOpensOnce: a view pinned to the cold tier (footprint
// above the cap) opens its mapping exactly once no matter how many
// requests read through it — the mapping is shared, not per-request.
func TestResidencyColdOpensOnce(t *testing.T) {
	d := viewjoin.GenerateXMark(0.05)
	paths := saveTestViews(t, d, testViews, viewjoin.SchemeLEp)
	// A cap of one byte keeps every view cold forever (nothing fits), so
	// every request is a cold hit through the one shared mapping.
	s := newFileBackedServer(t, Config{MaxResidentBytes: 1}, paths)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := queryRequest{Document: "xmark", Query: "//site//item//name", Views: []string{"//site//item//name"}}
	for i := 0; i < 5; i++ {
		var resp queryResponse
		if code := post(t, ts, "/query", req, &resp); code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	r := getMetrics(t, ts).Residency
	if r.ColdOpens != 1 {
		t.Errorf("cold_opens = %d, want 1 (shared mapping)", r.ColdOpens)
	}
	if r.ColdHits != 5 {
		t.Errorf("cold_hits = %d, want 5", r.ColdHits)
	}
	if r.Promotions != 0 || r.WarmViews != 0 {
		t.Errorf("over-cap view was promoted: %+v", r)
	}
	if r.ResidentBytes != 0 {
		t.Errorf("resident_bytes = %d, want 0", r.ResidentBytes)
	}
}

// TestServerCloseIdempotent: Close after serving releases all backends
// without error, and a second Close is a no-op.
func TestServerCloseIdempotent(t *testing.T) {
	d := viewjoin.GenerateXMark(0.05)
	paths := saveTestViews(t, d, testViews, viewjoin.SchemeLEp)
	s := newFileBackedServer(t, Config{MaxResidentBytes: 1}, paths)
	ts := httptest.NewServer(s.Handler())
	var resp queryResponse
	post(t, ts, "/query", queryRequest{Document: "xmark", Query: testQuery}, &resp)
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
