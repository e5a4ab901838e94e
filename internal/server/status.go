package server

import (
	"encoding/json"
	"net/http"
	"time"

	"viewjoin"
	"viewjoin/internal/counters"
	"viewjoin/internal/obs"
)

// This file is the server's read-only surface: GET /metrics, /debug/plans,
// /debug/slowlog, /healthz and /documents, and the histograms the run
// stage feeds them.

// observe records one successful run in the server's histograms: its
// duration in the engine's latency histogram (microseconds; power-of-two
// buckets shared with the trace reports) and how many range partitions it
// executed (1 for sequential).
func (s *Server) observe(eng viewjoin.Engine, st viewjoin.Stats) {
	s.histMu.Lock()
	h := s.latency[eng.String()]
	if h == nil {
		h = &obs.Histogram{}
		s.latency[eng.String()] = h
	}
	h.Add(st.Duration.Microseconds())
	s.partitions.Add(int64(st.Partitions))
	s.histMu.Unlock()
}

// countersOf lifts the public per-run Stats back into the internal counter
// record an obs.Aggregate folds, so per-plan aggregation works off the
// deterministic counters every untraced run already produces.
func countersOf(st viewjoin.Stats) counters.Counters {
	return counters.Counters{
		ElementsScanned: st.ElementsScanned,
		Comparisons:     st.Comparisons,
		PointerDerefs:   st.PointerDerefs,
		PagesRead:       st.PagesRead,
		PagesWritten:    st.PagesWritten,
		JumpsTaken:      st.JumpsTaken,
		JumpsRefused:    st.JumpsRefused,
	}
}

// metricsResponse is the body of GET /metrics.
type metricsResponse struct {
	Schema     string              `json:"schema"`
	UptimeMS   int64               `json:"uptime_ms"`
	PlanCache  planCacheMetrics    `json:"plan_cache"`
	Requests   requestMetrics      `json:"requests"`
	Updates    updateMetrics       `json:"updates"` // write path (/update + maintenance)
	Views      viewMetrics         `json:"views"`   // registered views, from files and from memory
	LatencyUS  map[string]histJSON `json:"latency_us"`
	Partitions countJSON           `json:"partitions"` // partitions per successful run
	Documents  int                 `json:"documents"`
}

type planCacheMetrics struct {
	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	Evictions      int64 `json:"evictions"`
	Prepares       int64 `json:"prepares"`
	Size           int   `json:"size"`
	Capacity       int   `json:"capacity"`
	FootprintBytes int64 `json:"footprint_bytes"` // estimated resident bytes of cached plans
}

type requestMetrics struct {
	Total    int64 `json:"total"`
	Shed     int64 `json:"shed"`
	Timeouts int64 `json:"timeouts"`
	Canceled int64 `json:"canceled"`
	Failures int64 `json:"failures"`
	InFlight int64 `json:"in_flight"`
	Queued   int64 `json:"queued"`
	Draining bool  `json:"draining"`
}

// updateMetrics is the write-path block of GET /metrics: updates applied,
// view maintenance operations, how often maintenance took the fast path
// (pure label splice), and the transactions' two layers summed — time
// deriving trees, time deriving view stores — with the list records the
// latter recomputed.
type updateMetrics struct {
	Total             int64 `json:"total"`
	Maintains         int64 `json:"maintains"`
	FastPath          int64 `json:"fast_path"`
	PlanInvalidations int64 `json:"plan_invalidations"`
	ApplyUS           int64 `json:"apply_us"`
	MaintainUS        int64 `json:"maintain_us"`
	RecomputedEntries int64 `json:"recomputed_entries"`
}

// histJSON summarizes a latency histogram as quantile estimates rather
// than raw bucket dumps: p50/p95/p99/p999 interpolated from the
// power-of-two buckets (within one bucket of exact, clamped to the
// observed maximum).
type histJSON struct {
	N    int64 `json:"n"`
	Sum  int64 `json:"sum_us"`
	Max  int64 `json:"max_us"`
	P50  int64 `json:"p50_us"`
	P95  int64 `json:"p95_us"`
	P99  int64 `json:"p99_us"`
	P999 int64 `json:"p999_us"`
}

// countJSON is histJSON's summary of a histogram of counts, not times:
// the same fields under unit-free keys.
type countJSON struct {
	N    int64 `json:"n"`
	Sum  int64 `json:"sum"`
	Max  int64 `json:"max"`
	P50  int64 `json:"p50"`
	P95  int64 `json:"p95"`
	P99  int64 `json:"p99"`
	P999 int64 `json:"p999"`
}

func histOf(h *obs.Histogram) histJSON {
	return histJSON{
		N: h.N, Sum: h.Sum, Max: h.Max,
		P50:  h.Quantile(0.50),
		P95:  h.Quantile(0.95),
		P99:  h.Quantile(0.99),
		P999: h.Quantile(0.999),
	}
}

// planRow is one row of the per-plan table: the plan identity, the
// aggregate of every run it has served since entering the cache, and the
// summed deterministic counter record of those runs — the observed
// analogue of the §V cost-model terms.
type planRow struct {
	Document        string            `json:"document"`
	Query           string            `json:"query"`
	Engine          string            `json:"engine"`
	Views           string            `json:"views"`
	Runs            int64             `json:"runs"`
	Errors          int64             `json:"errors"`
	LatencyUS       histJSON          `json:"latency_us"`
	JumpRefusedRate float64           `json:"jump_refused_rate"`
	FootprintBytes  int64             `json:"footprint_bytes"`
	Counters        counters.Counters `json:"counters"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	hits, misses, evictions, size, footprint := s.cache.stats()
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	resp := metricsResponse{
		Schema:   MetricsSchema,
		UptimeMS: time.Since(s.start).Milliseconds(),
		PlanCache: planCacheMetrics{
			Hits: hits, Misses: misses, Evictions: evictions,
			Prepares: s.prepares.Load(), Size: size, Capacity: s.cfg.CacheSize,
			FootprintBytes: footprint,
		},
		Requests: requestMetrics{
			Total:    s.requests.Load(),
			Shed:     s.shed.Load(),
			Timeouts: s.timeouts.Load(),
			Canceled: s.canceled.Load(),
			Failures: s.failures.Load(),
			InFlight: s.inFlight.Load(),
			Queued:   s.queued.Load(),
			Draining: draining,
		},
		Updates: updateMetrics{
			Total:             s.updates.Load(),
			Maintains:         s.maintains.Load(),
			FastPath:          s.fastPaths.Load(),
			PlanInvalidations: s.planInvalidations.Load(),
			ApplyUS:           s.applyUS.Load(),
			MaintainUS:        s.maintainUS.Load(),
			RecomputedEntries: s.recomputed.Load(),
		},
		Views:     s.viewSnapshot(),
		LatencyUS: make(map[string]histJSON),
		Documents: len(s.docs),
	}
	s.histMu.Lock()
	for name, h := range s.latency {
		resp.LatencyUS[name] = histOf(h)
	}
	resp.Partitions = countJSON(histOf(&s.partitions))
	s.histMu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// plansResponse is the body of GET /debug/plans: the per-plan table, one
// row per resident cache entry (most recently used first) with its summed
// counter record, plus every registered view with where its pages live.
type plansResponse struct {
	Schema string    `json:"schema"`
	Plans  []planRow `json:"plans"`
	Views  []viewRow `json:"views"`
}

func (s *Server) handlePlans(w http.ResponseWriter, r *http.Request) {
	ents := s.cache.entries()
	resp := plansResponse{
		Schema: PlansSchema,
		Plans:  make([]planRow, 0, len(ents)),
		Views:  s.viewRows(),
	}
	for _, ent := range ents {
		snap := ent.agg.Snapshot()
		resp.Plans = append(resp.Plans, planRow{
			Document:        ent.key.doc,
			Query:           ent.key.query,
			Engine:          ent.key.engine.String(),
			Views:           ent.key.views,
			Runs:            snap.Runs,
			Errors:          snap.Errors,
			LatencyUS:       histOf(&snap.LatencyUS),
			JumpRefusedRate: snap.JumpRefusedRate(),
			FootprintBytes:  ent.footprint,
			Counters:        snap.Counters,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleSlowlog serves the flight recorder's snapshot (schema
// viewjoin/slowlog/v4).
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.slowlog.snapshot())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	status := "ok"
	if draining {
		status = "draining"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(map[string]any{"status": status, "in_flight": s.inFlight.Load()})
}

// documentInfo is one entry of GET /documents.
type documentInfo struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	// Epoch is the document's current update epoch (0 until the first
	// /update); cursors are only valid at the epoch they were issued at.
	Epoch uint64 `json:"epoch"`
	// DocPieces is the size of the current snapshot's piece table; 1 = flat.
	DocPieces int        `json:"doc_pieces"`
	Views     []viewInfo `json:"views"`
}

type viewInfo struct {
	Pattern   string `json:"pattern"`
	Scheme    string `json:"scheme"`
	Entries   int    `json:"entries"`
	SizeBytes int64  `json:"size_bytes"`
	Tier      string `json:"tier"` // memory, file
	// Pieces is the piece count of the view's largest list; 1 = flat.
	Pieces int `json:"pieces"`
}

func (s *Server) handleDocuments(w http.ResponseWriter, r *http.Request) {
	out := []documentInfo{}
	for _, n := range sortedKeys(s.docs) {
		e := s.docs[n]
		di := documentInfo{Name: n, Nodes: e.doc.NumNodes(), Epoch: e.doc.Epoch(), DocPieces: e.doc.NumPieces()}
		for _, vn := range e.order {
			ve := e.views[vn]
			di.Views = append(di.Views, viewInfo{
				Pattern:   vn,
				Scheme:    ve.mv.Scheme().String(),
				Entries:   ve.mv.NumEntries(),
				SizeBytes: ve.mv.SizeBytes(),
				Tier:      ve.tier(),
				Pieces:    ve.mv.NumPieces(),
			})
		}
		out = append(out, di)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
