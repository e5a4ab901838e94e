// Command vjload is an open-loop load generator for vjserve: it fires
// query requests at a target rate with Poisson (exponential inter-arrival)
// timing, never waiting for a response before dispatching the next
// request, so server slowdowns surface as latency and shed counts instead
// of silently throttling the offered load (the coordinated-omission trap
// of closed-loop benchmarks).
//
// Usage:
//
//	vjload -target http://localhost:8080 -qps 200 -duration 10s
//	vjload -xmark 0.1 -views '//site//item//name; //description//keyword' -qps 500 -duration 5s
//	vjload -qps 100 -mix '//site//item[//description//keyword]/name; //site//item//name @ //site//item//name' -json load.json
//
// The -mix flag holds semicolon-separated query classes drawn uniformly.
// A class may scope itself to specific registered views with
// 'query @ view1, view2' (comma-separated); without '@' the server uses
// every view registered for the document, which fails preparation when a
// registered view is not a subpattern of the query. A trailing '# N' caps
// the class at N matches ('query @ views # 20'), exercising the server's
// first-k pushdown; limited classes also report time-to-first-match
// quantiles in the manifest.
//
// Without -target, vjload builds an in-process server from -xmark/-views
// and drives its HTTP handler directly — no sockets, same serving stack —
// which is what scripts/ci.sh uses for its smoke run.
//
// The -json manifest (schema viewjoin/load/v1) reports offered and
// achieved QPS, outcome counts, and latency quantiles (p50/p95/p99/p999)
// overall and per query class.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"viewjoin"
	"viewjoin/internal/obs"
	"viewjoin/internal/server"
)

// LoadSchema identifies the -json manifest layout.
const LoadSchema = "viewjoin/load/v1"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type loadConfig struct {
	Target      string   `json:"target"` // URL, or "inprocess"
	QPS         float64  `json:"qps"`
	DurationSec float64  `json:"durationSec"`
	Engine      string   `json:"engine"`
	Mix         []string `json:"mix"`
	TimeoutMS   int64    `json:"timeoutMS"`
	MaxInflight int      `json:"maxInflight"`
	Seed        int64    `json:"seed"`
}

// histSummary is one latency distribution in the manifest: counts plus the
// quantile estimates the power-of-two buckets support.
type histSummary struct {
	N      int64   `json:"n"`
	MeanUS float64 `json:"meanUS"`
	P50US  int64   `json:"p50US"`
	P95US  int64   `json:"p95US"`
	P99US  int64   `json:"p99US"`
	P999US int64   `json:"p999US"`
	MaxUS  int64   `json:"maxUS"`
}

func summarize(h *obs.Histogram) histSummary {
	return histSummary{
		N: h.N, MeanUS: h.Mean(), MaxUS: h.Max,
		P50US:  h.Quantile(0.50),
		P95US:  h.Quantile(0.95),
		P99US:  h.Quantile(0.99),
		P999US: h.Quantile(0.999),
	}
}

// manifest is the viewjoin/load/v1 run report.
type manifest struct {
	Schema      string      `json:"schema"`
	GitSHA      string      `json:"gitSHA"`
	StartedAt   string      `json:"startedAt"`
	Config      loadConfig  `json:"config"`
	Sent        int64       `json:"sent"`
	Completed   int64       `json:"completed"` // 200s
	Shed        int64       `json:"shed"`      // 429s
	Timeouts    int64       `json:"timeouts"`  // 504s
	Errors      int64       `json:"errors"`    // everything else
	Dropped     int64       `json:"dropped"`   // client-side: inflight cap hit
	AchievedQPS float64     `json:"achievedQPS"`
	LatencyUS   histSummary `json:"latencyUS"` // completed requests only
	// FirstMatchUS is the distribution of server-reported time-to-first-
	// match (stats.first_match_us) over completed requests that produced
	// at least one match; it is the latency a paging client perceives.
	FirstMatchUS      histSummary            `json:"firstMatchUS"`
	ByQuery           map[string]histSummary `json:"byQuery"`
	ByQueryFirstMatch map[string]histSummary `json:"byQueryFirstMatch"`
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// outcome classifies one finished request for accounting.
type outcome struct {
	class     int // index into the query mix
	status    int
	latencyUS int64
	firstUS   int64 // server-reported time-to-first-match, 0 when absent
}

// respProbe extracts the one response field the generator accounts for;
// the rest of the body is skipped, not validated.
type respProbe struct {
	Stats struct {
		FirstMatchUS int64 `json:"first_match_us"`
	} `json:"stats"`
}

// probeFirstMatch pulls stats.first_match_us out of a 200 response body.
func probeFirstMatch(body []byte) int64 {
	var p respProbe
	if json.Unmarshal(body, &p) != nil {
		return 0
	}
	return p.Stats.FirstMatchUS
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vjload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		target    = fs.String("target", "", "vjserve base URL; empty: drive an in-process server")
		qps       = fs.Float64("qps", 100, "target arrival rate (Poisson)")
		duration  = fs.Duration("duration", 10*time.Second, "load duration")
		docName   = fs.String("name", "doc", "document name in requests")
		engine    = fs.String("engine", "VJ", "engine for every request: VJ, TS, PS, IJ")
		mixStr    = fs.String("mix", "//site//item[//description//keyword]/name", "semicolon-separated query mix, drawn uniformly; scope a class to views with 'query @ view1, view2'")
		timeoutMS = fs.Int64("timeout-ms", 0, "per-request timeout_ms (0: server default)")
		inflight  = fs.Int("max-inflight", 256, "client-side cap on outstanding requests; arrivals beyond it are counted dropped")
		seed      = fs.Int64("seed", 1, "arrival-process RNG seed")
		jsonOut   = fs.String("json", "", "write the viewjoin/load/v1 manifest to this file (default: stdout)")
		// In-process server setup (ignored with -target).
		xmark     = fs.Float64("xmark", 0.05, "in-process: XMark scale of the served document")
		viewsStr  = fs.String("views", "//site//item//name; //description//keyword", "in-process: views to materialize")
		schemeStr = fs.String("scheme", "LEp", "in-process: storage scheme")
		workers   = fs.Int("workers", 4, "in-process: server worker bound")
		queue     = fs.Int("queue", 16, "in-process: server queue depth")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *qps <= 0 {
		fmt.Fprintln(stderr, "vjload: -qps must be > 0")
		return 1
	}
	mix := parseMix(*mixStr)
	if len(mix) == 0 {
		fmt.Fprintln(stderr, "vjload: empty -mix")
		return 1
	}

	// The dispatch function hides live-vs-inprocess: both go through the
	// same serving handler stack; only the transport differs.
	var dispatch func(body []byte) (int, int64)
	cfgTarget := *target
	if *target != "" {
		client := &http.Client{}
		url := strings.TrimRight(*target, "/") + "/query"
		dispatch = func(body []byte) (int, int64) {
			resp, err := client.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				return 0, 0
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				io.Copy(io.Discard, resp.Body)
				return resp.StatusCode, 0
			}
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				return resp.StatusCode, 0
			}
			return resp.StatusCode, probeFirstMatch(b)
		}
	} else {
		cfgTarget = "inprocess"
		handler, err := inprocessHandler(*xmark, *viewsStr, *schemeStr, *docName, *workers, *queue)
		if err != nil {
			fmt.Fprintf(stderr, "vjload: %v\n", err)
			return 1
		}
		dispatch = func(body []byte) (int, int64) {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
			handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return rec.Code, 0
			}
			return rec.Code, probeFirstMatch(rec.Body.Bytes())
		}
	}

	// Pre-marshal one request body per query class; the arrival loop only
	// picks indices.
	bodies := make([][]byte, len(mix))
	for i, c := range mix {
		body := map[string]any{
			"document": *docName, "query": c.query, "engine": *engine, "timeout_ms": *timeoutMS,
		}
		if len(c.views) > 0 {
			body["views"] = c.views
		}
		if c.limit > 0 {
			body["limit"] = c.limit
		}
		b, err := json.Marshal(body)
		if err != nil {
			fmt.Fprintf(stderr, "vjload: %v\n", err)
			return 1
		}
		bodies[i] = b
	}

	m := generate(dispatch, bodies, *qps, *duration, *inflight, *seed)
	m.Schema = LoadSchema
	m.GitSHA = gitSHA()
	m.StartedAt = time.Now().UTC().Format(time.RFC3339)
	specs := make([]string, len(mix))
	for i, c := range mix {
		specs[i] = c.spec
	}
	m.Config = loadConfig{
		Target: cfgTarget, QPS: *qps, DurationSec: duration.Seconds(),
		Engine: *engine, Mix: specs, TimeoutMS: *timeoutMS,
		MaxInflight: *inflight, Seed: *seed,
	}
	m.ByQuery = renameClasses(m.ByQuery, specs)
	m.ByQueryFirstMatch = renameClasses(m.ByQueryFirstMatch, specs)

	fmt.Fprintf(stderr, "vjload: %d sent, %d ok, %d shed, %d timeout, %d error, %d dropped; %.1f qps achieved (offered %.1f); p50 %dµs p95 %dµs p99 %dµs\n",
		m.Sent, m.Completed, m.Shed, m.Timeouts, m.Errors, m.Dropped,
		m.AchievedQPS, *qps, m.LatencyUS.P50US, m.LatencyUS.P95US, m.LatencyUS.P99US)

	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "vjload: %v\n", err)
		return 1
	}
	out = append(out, '\n')
	if *jsonOut == "" {
		stdout.Write(out)
		return 0
	}
	if err := os.WriteFile(*jsonOut, out, 0o644); err != nil {
		fmt.Fprintf(stderr, "vjload: %v\n", err)
		return 1
	}
	return 0
}

// generate runs the open-loop arrival process: a single goroutine draws
// exponential inter-arrival gaps and query classes from the seeded RNG
// (deterministic offered load), dispatching each request on its own
// goroutine. Requests outstanding beyond the inflight cap are dropped at
// the client and counted — under overload an open-loop generator must
// keep offering load, not queue unboundedly.
func generate(dispatch func([]byte) (int, int64), bodies [][]byte, qps float64, d time.Duration,
	maxInflight int, seed int64) manifest {
	rng := rand.New(rand.NewSource(seed))
	results := make(chan outcome, 1024)
	slots := make(chan struct{}, maxInflight)

	var m manifest
	var wg sync.WaitGroup
	collectorDone := make(chan struct{})

	// Per-class histograms, merged into the overall distribution at the
	// end — the same mergeable buckets the server and tracer use. The
	// firstMatch histograms only see completed requests that reported a
	// nonzero time-to-first-match (matchless runs carry no TTFM signal).
	perClass := make([]*obs.Histogram, len(bodies))
	perClassFirst := make([]*obs.Histogram, len(bodies))
	for i := range perClass {
		perClass[i] = &obs.Histogram{}
		perClassFirst[i] = &obs.Histogram{}
	}
	go func() {
		defer close(collectorDone)
		for o := range results {
			switch {
			case o.status == http.StatusOK:
				m.Completed++
				perClass[o.class].Add(o.latencyUS)
				if o.firstUS > 0 {
					perClassFirst[o.class].Add(o.firstUS)
				}
			case o.status == http.StatusTooManyRequests:
				m.Shed++
			case o.status == http.StatusGatewayTimeout:
				m.Timeouts++
			default:
				m.Errors++
			}
		}
	}()

	begin := time.Now()
	deadline := begin.Add(d)
	next := begin
	for {
		next = next.Add(time.Duration(rng.ExpFloat64() / qps * float64(time.Second)))
		if next.After(deadline) {
			break
		}
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		class := rng.Intn(len(bodies))
		body := bodies[class]
		m.Sent++
		select {
		case slots <- struct{}{}:
		default:
			m.Dropped++
			continue
		}
		wg.Add(1)
		go func(class int, body []byte) {
			defer wg.Done()
			t0 := time.Now()
			status, firstUS := dispatch(body)
			results <- outcome{class: class, status: status, latencyUS: time.Since(t0).Microseconds(), firstUS: firstUS}
			<-slots
		}(class, body)
	}
	wg.Wait()
	close(results)
	<-collectorDone
	elapsed := time.Since(begin)

	var overall, overallFirst obs.Histogram
	m.ByQuery = make(map[string]histSummary, len(perClass))
	m.ByQueryFirstMatch = make(map[string]histSummary, len(perClassFirst))
	for i, h := range perClass {
		overall.Merge(h)
		m.ByQuery[fmt.Sprintf("%d", i)] = summarize(h)
	}
	for i, h := range perClassFirst {
		overallFirst.Merge(h)
		m.ByQueryFirstMatch[fmt.Sprintf("%d", i)] = summarize(h)
	}
	m.LatencyUS = summarize(&overall)
	m.FirstMatchUS = summarize(&overallFirst)
	if secs := elapsed.Seconds(); secs > 0 {
		m.AchievedQPS = float64(m.Completed) / secs
	}
	return m
}

// renameClasses rekeys the per-class summaries from mix indices to the
// class specs (kept numeric inside generate to avoid threading the mix
// through it).
func renameClasses(by map[string]histSummary, specs []string) map[string]histSummary {
	out := make(map[string]histSummary, len(by))
	for i, spec := range specs {
		if s, ok := by[fmt.Sprintf("%d", i)]; ok {
			out[spec] = s
		}
	}
	return out
}

// mixClass is one entry of the workload mix: a query, the views the
// request names (none: server default of all registered views), an
// optional match limit (0: full enumeration), and the normalized spec text
// used as the manifest key.
type mixClass struct {
	query string
	views []string
	limit int
	spec  string
}

func parseMix(s string) []mixClass {
	var out []mixClass
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		// 'query @ views # N' — the limit comes off first so the view list
		// never sees it.
		var c mixClass
		if rest, lim, ok := strings.Cut(part, "#"); ok {
			if n, err := strconv.Atoi(strings.TrimSpace(lim)); err == nil && n > 0 {
				c.limit = n
			}
			part = strings.TrimSpace(rest)
		}
		c.query, c.spec = part, part
		if q, vs, ok := strings.Cut(part, "@"); ok {
			c.query = strings.TrimSpace(q)
			for _, v := range strings.Split(vs, ",") {
				if v = strings.TrimSpace(v); v != "" {
					c.views = append(c.views, v)
				}
			}
			c.spec = c.query + " @ " + strings.Join(c.views, ", ")
		}
		if c.limit > 0 {
			c.spec += fmt.Sprintf(" # %d", c.limit)
		}
		out = append(out, c)
	}
	return out
}

// inprocessHandler builds a full vjserve serving stack (document, views,
// plan cache, admission control) and returns its HTTP handler.
func inprocessHandler(xmark float64, viewsStr, schemeStr, docName string, workers, queue int) (http.Handler, error) {
	doc := viewjoin.GenerateXMark(xmark)
	views, err := viewjoin.ParseViews(viewsStr)
	if err != nil {
		return nil, err
	}
	scheme, err := server.ParseScheme(schemeStr)
	if err != nil {
		return nil, err
	}
	mviews, err := doc.MaterializeViews(views, scheme)
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Workers: workers, QueueDepth: queue})
	if err := srv.AddDocument(docName, doc); err != nil {
		return nil, err
	}
	for _, mv := range mviews {
		if err := srv.AddView(docName, mv); err != nil {
			return nil, err
		}
	}
	return srv.Handler(), nil
}
