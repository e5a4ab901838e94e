package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"viewjoin"
	"viewjoin/internal/server"
)

// Density measures serving density: how many documents' views one vjserve
// process can serve under a resident-bytes cap. A fleet of per-tenant Nasa
// documents registers its saved view files with two in-process servers —
// one unbounded (every view heap-resident, the baseline every earlier
// experiment assumed) and one capped at roughly half the total view
// footprint, serving the overflow through mmap-backed cold loads with
// LRU promotion/demotion between the tiers (§V's page-cost model applied
// to residency instead of I/O scheduling).
//
// The experiment is also the end-to-end correctness gate for the tiering:
// every response body's match set must be byte-identical across the two
// servers — demotions, cold serves and promotions may change where bytes
// come from, never which bytes come back.
func Density(cfg Config) error {
	cfg = cfg.withDefaults()
	w := cfg.Out

	const numTenants = 5
	const rounds = 3
	docElems := cfg.NasaDatasets / 4
	if docElems < 40 {
		docElems = 40
	}

	dir, err := os.MkdirTemp("", "vj-density-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Build the tenant fleet: per-tenant documents of staggered sizes with
	// their views saved to container files (the operational cold asset).
	type tenantViews struct {
		name  string
		doc   *viewjoin.Document
		paths []string
		bytes int64
	}
	views, err := viewjoin.ParseViews("//field//para; //footnote")
	if err != nil {
		return err
	}
	tenants := make([]tenantViews, numTenants)
	var totalBytes, maxTenantBytes int64
	for i := range tenants {
		t := &tenants[i]
		t.name = fmt.Sprintf("t%d", i)
		t.doc = viewjoin.GenerateNasa(docElems * (i + 2) / 2)
		mvs, err := t.doc.MaterializeViews(views, viewjoin.SchemeLE)
		if err != nil {
			return err
		}
		for j, mv := range mvs {
			var buf bytes.Buffer
			if _, err := mv.SaveView(&buf); err != nil {
				return err
			}
			p := filepath.Join(dir, fmt.Sprintf("%s-view-%d.vjview", t.name, j))
			if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
				return err
			}
			t.paths = append(t.paths, p)
		}
		// Footprint accounting uses the page-padded figure the residency
		// manager sees, not the raw file length.
		for _, p := range t.paths {
			mv, err := t.doc.OpenView(p)
			if err != nil {
				return err
			}
			t.bytes += mv.FootprintBytes()
			mv.Release()
		}
		totalBytes += t.bytes
		if t.bytes > maxTenantBytes {
			maxTenantBytes = t.bytes
		}
	}

	// The cap fits roughly half the fleet but always at least the largest
	// tenant, so promotion is possible and demotion is necessary.
	cap := totalBytes / 2
	if cap < maxTenantBytes {
		cap = maxTenantBytes
	}

	newServer := func(maxResident int64) (*server.Server, *httptest.Server, error) {
		s := server.New(server.Config{MaxResidentBytes: maxResident})
		for i := range tenants {
			t := &tenants[i]
			if err := s.AddTenantDocument(t.name, "nasa", t.doc); err != nil {
				return nil, nil, err
			}
			for _, p := range t.paths {
				if err := s.AddTenantViewFile(t.name, "nasa", p); err != nil {
					return nil, nil, err
				}
			}
		}
		return s, httptest.NewServer(s.Handler()), nil
	}
	capped, cappedTS, err := newServer(cap)
	if err != nil {
		return err
	}
	defer func() { cappedTS.Close(); capped.Close() }()
	resident, residentTS, err := newServer(0)
	if err != nil {
		return err
	}
	defer func() { residentTS.Close(); resident.Close() }()

	type matchPage struct {
		MatchCount int             `json:"match_count"`
		Matches    json.RawMessage `json:"matches"`
	}
	query := func(ts *httptest.Server, tenant string) (matchPage, time.Duration, error) {
		body, _ := json.Marshal(map[string]any{
			"tenant":   tenant,
			"document": "nasa",
			"query":    "//field//footnote//para",
			"limit":    1000000,
		})
		start := time.Now()
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return matchPage{}, 0, err
		}
		defer resp.Body.Close()
		var page matchPage
		if resp.StatusCode != http.StatusOK {
			return page, 0, fmt.Errorf("tenant %s: status %d", tenant, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			return page, 0, err
		}
		return page, time.Since(start), nil
	}

	fmt.Fprintf(w, "density: %d tenants, %s views total, cap %s\n",
		numTenants, fmtMB(totalBytes), fmtMB(cap))
	fmt.Fprintf(w, "%-8s %10s %12s %12s %10s\n",
		"tenant", "views", "capped", "resident", "matches")

	// Sweep the fleet: each round visits every tenant twice (the repeat is
	// what earns a cold view its promotion), so the LRU churns — late
	// tenants evict early ones, and early ones come back cold next round.
	cappedTime := make([]time.Duration, numTenants)
	residentTime := make([]time.Duration, numTenants)
	matches := make([]int, numTenants)
	for round := 0; round < rounds; round++ {
		for i := range tenants {
			for rep := 0; rep < 2; rep++ {
				got, dt, err := query(cappedTS, tenants[i].name)
				if err != nil {
					return fmt.Errorf("density: capped: %w", err)
				}
				want, dt2, err := query(residentTS, tenants[i].name)
				if err != nil {
					return fmt.Errorf("density: resident: %w", err)
				}
				if !bytes.Equal(got.Matches, want.Matches) || got.MatchCount != want.MatchCount {
					return fmt.Errorf("density: tenant %s round %d: capped server returned %d matches, resident %d — tiering changed results",
						tenants[i].name, round, got.MatchCount, want.MatchCount)
				}
				cappedTime[i] += dt
				residentTime[i] += dt2
				matches[i] = got.MatchCount
			}
		}
	}

	for i := range tenants {
		n := time.Duration(2 * rounds)
		fmt.Fprintf(w, "%-8s %10s %12s %12s %10d\n", tenants[i].name,
			fmtMB(tenants[i].bytes), fmtDur(cappedTime[i]/n), fmtDur(residentTime[i]/n), matches[i])
	}

	// The capped server must actually have tiered: cold serves, promotions
	// and demotions all nonzero, and the warm tier within its cap. The
	// unbounded server must never have gone cold at all.
	type residencyJSON struct {
		CapBytes      int64 `json:"cap_bytes"`
		ResidentBytes int64 `json:"resident_bytes"`
		ColdBytes     int64 `json:"cold_bytes"`
		WarmViews     int   `json:"warm_views"`
		ColdViews     int   `json:"cold_views"`
		Promotions    int64 `json:"promotions"`
		Demotions     int64 `json:"demotions"`
		PlanEvictions int64 `json:"plan_evictions"`
		WarmHits      int64 `json:"warm_hits"`
		ColdHits      int64 `json:"cold_hits"`
		ColdOpens     int64 `json:"cold_opens"`
	}
	metrics := func(ts *httptest.Server) (residencyJSON, error) {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			return residencyJSON{}, err
		}
		defer resp.Body.Close()
		var m struct {
			Residency residencyJSON `json:"residency"`
		}
		return m.Residency, json.NewDecoder(resp.Body).Decode(&m)
	}
	cm, err := metrics(cappedTS)
	if err != nil {
		return err
	}
	rm, err := metrics(residentTS)
	if err != nil {
		return err
	}
	if cm.ColdHits == 0 || cm.Promotions == 0 || cm.Demotions == 0 {
		return fmt.Errorf("density: capped server never tiered (cold_hits=%d promotions=%d demotions=%d) — cap %d ineffective",
			cm.ColdHits, cm.Promotions, cm.Demotions, cap)
	}
	if cm.ResidentBytes > cap {
		return fmt.Errorf("density: resident bytes %d exceed cap %d", cm.ResidentBytes, cap)
	}
	if rm.ColdHits != 0 || rm.Demotions != 0 {
		return fmt.Errorf("density: unbounded server went cold (cold_hits=%d demotions=%d)", rm.ColdHits, rm.Demotions)
	}
	fmt.Fprintf(w, "capped:   resident %s / cap %s, warm %d cold %d, promotions %d demotions %d cold_hits %d plan_evictions %d\n",
		fmtMB(cm.ResidentBytes), fmtMB(cm.CapBytes), cm.WarmViews, cm.ColdViews,
		cm.Promotions, cm.Demotions, cm.ColdHits, cm.PlanEvictions)
	fmt.Fprintf(w, "resident: resident %s (unbounded), warm %d, warm_hits %d\n",
		fmtMB(rm.ResidentBytes), rm.WarmViews, rm.WarmHits)
	return nil
}
