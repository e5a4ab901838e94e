// Package server implements the vjserve HTTP daemon: a registry of
// documents and materialized views loaded at startup, a bounded LRU cache
// of prepared query plans, and a JSON query API with per-request
// deadlines, admission control, and an observability surface.
//
// The serving model follows the paper's cost split directly: everything
// §V charges once per plan (view-set validation, view-segmented query
// construction, list binding, InterJoin's view scans) is paid at Prepare
// time and amortized across requests through the plan cache, while each
// request pays only the per-execution costs (cursor movement, structural
// joins, enumeration) via PreparedQuery.RunWith on pooled scratch. The
// split is visible in a query's stages (query.go): the plan stage pays
// Prepare on a cache miss, the run stage pays each request's execution.
// Every POST request goes through one edge (edge.go) from acceptance to
// its one finish.
package server

import (
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"viewjoin"
	"viewjoin/internal/obs"
)

// Schema identifiers of the JSON documents the server emits. A
// /debug/trace response embeds its run's report in the viewjoin/trace/v2
// schema.
const (
	ResponseSchema = "viewjoin/serve/v1"
	MetricsSchema  = "viewjoin/metrics/v1"
	AccessSchema   = "viewjoin/access/v1"
	PlansSchema    = "viewjoin/plans/v1"
)

// Config tunes a Server. The zero value is what vjserve deploys: every
// field has a serving default, set in one place (withDefaults). Nothing
// here decides how views are held: in-memory views live on the heap, view
// files are mapped (registry.go).
type Config struct {
	// CacheSize bounds the plan cache (prepared plans, LRU). Default 128.
	CacheSize int
	// Workers bounds concurrent query evaluations. Each request runs on
	// one worker (no partitioned runs), so this also bounds the cores
	// evaluation uses. Default 4.
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a worker
	// slot before new arrivals are shed with 429. Default 16; negative
	// means an unbounded queue.
	QueueDepth int
	// DefaultTimeout bounds requests that do not carry their own
	// timeout_ms. Default 10s.
	DefaultTimeout time.Duration
	// AccessLog, when non-nil, receives one JSON line (schema
	// viewjoin/access/v1) per query request.
	AccessLog io.Writer
}

// DeployedConfig is the configuration vjserve runs with when no serving
// flag is given: the zero Config with its defaults filled in.
func DeployedConfig() Config { return Config{}.withDefaults() }

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 16
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	return c
}

// docEntry is one registered document with its named views. Views are
// keyed by the canonical rendering of their pattern.
type docEntry struct {
	doc   *viewjoin.Document
	views map[string]*viewEntry
	order []string // registration order, for /documents listings
	// wmu serializes the document's write path: one /update at a time per
	// document derives the successor tree and every view's successor.
	// Reads never take it — they run against immutable snapshots.
	wmu sync.Mutex
	// pub makes an update's publication atomic to plan building: the
	// commit holds it for the pointer swaps and the plan invalidation, a
	// cache miss holds it shared from Prepare to the cache insert.
	pub sync.RWMutex
}

// Server is the shared state of the daemon. All fields are safe for
// concurrent use once serving starts; documents and views are registered
// before the listener is opened and immutable afterwards. View stores are
// flat page-aligned buffers read through per-request cursors, so every
// worker evaluates off the same immutable segments — no per-request copy
// or decode of view data.
type Server struct {
	cfg   Config
	docs  map[string]*docEntry // document name -> entry
	cache *planCache

	sem    chan struct{} // worker slots
	queued atomic.Int64  // admitted requests waiting for a slot

	mu       sync.Mutex // guards draining + wg.Add pairing
	draining bool
	wg       sync.WaitGroup

	prepares atomic.Int64 // plans built (misses that did the Prepare work)
	requests atomic.Int64
	shed     atomic.Int64
	timeouts atomic.Int64
	canceled atomic.Int64 // client cancellations (disconnects), distinct from deadline expiry
	failures atomic.Int64
	inFlight atomic.Int64

	updates           atomic.Int64 // document updates applied via /update
	maintains         atomic.Int64 // view maintenance operations performed
	fastPaths         atomic.Int64 // maintains that took the pure label-splice fast path
	planInvalidations atomic.Int64 // cached plans dropped by updates
	applyUS           atomic.Int64 // summed time deriving successor trees
	maintainUS        atomic.Int64 // summed time deriving successor view stores
	recomputed        atomic.Int64 // summed list records recomputed by maintenance

	start   time.Time // serving start, for uptime reporting
	slowlog *slowlog  // the flight recorder behind /debug/slowlog

	histMu  sync.Mutex
	latency map[string]*obs.Histogram // engine name -> run latency (µs)

	logMu sync.Mutex

	// testEvalGate, when non-nil, is received from while holding a worker
	// slot, before evaluation; testEvalStarted is called just before the
	// receive. Tests use the pair to hold a worker busy deterministically.
	testEvalGate    chan struct{}
	testEvalStarted func()
	// testFailMaintain, when non-nil, is asked before each view's
	// derivation in /update; a non-nil error fails the transaction there.
	testFailMaintain func(view string) error
}

// New builds a Server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:     cfg,
		docs:    make(map[string]*docEntry),
		cache:   newPlanCache(cfg.CacheSize),
		sem:     make(chan struct{}, cfg.Workers),
		latency: make(map[string]*obs.Histogram),
		start:   time.Now(),
		slowlog: newSlowlog(slowlogSize),
	}
}

// Handler returns the HTTP handler serving the full API surface. The three
// POST endpoints share one edge, serve (edge.go).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.serve)
	mux.HandleFunc("/update", s.serve)
	mux.HandleFunc("/debug/trace", s.serve)
	mux.HandleFunc("/debug/slowlog", s.handleSlowlog)
	mux.HandleFunc("/debug/plans", s.handlePlans)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/documents", s.handleDocuments)
	return mux
}

// Drain puts the server into draining mode — new query requests are
// rejected with 503 — and blocks until every in-flight request has
// finished. It is the SIGTERM path of cmd/vjserve.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.wg.Wait()
}
