// Command vjserve is the ViewJoin query daemon: it loads a document and
// its materialized views at startup, then serves tree pattern queries over
// HTTP/JSON through a bounded LRU cache of prepared plans.
//
// Usage:
//
//	vjserve -addr :8080 -xmark 0.5 -views '//site//item//name; //description//keyword'
//	vjserve -addr :8080 -doc doc.xml -load 'views/*.vjview'
//	vjserve -addr :8080 -nasa 500 -views '//field//para; //footnote' -scheme LEp -json
//
// -views materializes its views in memory (the only kind /update
// maintains); -load maps each saved view file read-only and serves it from
// the mapping, so the files' pages are shared through the page cache with
// every other process serving them. Request bodies are decoded strictly: a
// field not listed below is a 400.
//
// Endpoints:
//
//	POST /query          {"document","query","engine","views","timeout_ms","limit","cursor","parallel"}
//	POST /update         {"document","op","target","fragment"}; maintains every view, bumps the epoch
//	POST /debug/trace    same body as /query; returns the viewjoin/trace/v1 report inline
//	GET  /debug/slowlog  flight recorder: N slowest + N most recent requests with full traces
//	GET  /debug/plans    per-plan aggregates of every cached plan (viewjoin/plans/v1)
//	GET  /metrics        plan-cache and request counters, latency quantiles, per-plan table
//	GET  /healthz        liveness ("ok" or "draining")
//	GET  /documents      registered documents and views
//
// On SIGINT/SIGTERM the server stops accepting queries (503), drains
// in-flight requests, and exits 0. -json writes one viewjoin/access/v1
// JSON line per request to stdout.
//
// Exit status: 0 on clean shutdown, 2 when the query/view setup fails to
// parse, 1 for any other startup error. Failures are reported on stderr as
// one-line JSON: {"stage":"...","error":"..."}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"viewjoin"
	"viewjoin/internal/server"
)

const (
	exitOther = 1
	exitParse = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is main without the process exit, for testing: ready (when non-nil)
// receives the bound address once the listener is open.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("vjserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		docPath   = fs.String("doc", "", "XML document to serve")
		docName   = fs.String("name", "doc", "name the document is registered under")
		xmark     = fs.Float64("xmark", 0, "serve a generated XMark document of this scale")
		nasa      = fs.Int("nasa", 0, "serve a generated Nasa document with this many datasets")
		viewsStr  = fs.String("views", "", "semicolon-separated views to materialize at startup")
		schemeStr = fs.String("scheme", "LEp", "storage scheme for -views: E, LE, LEp, T")
		loadGlob  = fs.String("load", "", "load saved views matching this glob (from vjmaterialize) instead of materializing")
		cacheSize = fs.Int("cache", 128, "plan cache capacity (prepared plans)")
		workers   = fs.Int("workers", 4, "concurrent query evaluations")
		queue     = fs.Int("queue", 16, "admitted requests that may wait for a worker before 429 shedding (negative: unbounded)")
		maxPar    = fs.Int("max-parallel", 1, "cap on the per-request 'parallel' partition knob (1 = parallel evaluation disabled)")
		timeout   = fs.Duration("timeout", 10*time.Second, "default per-request deadline")
		jsonLog   = fs.Bool("json", false, "write one viewjoin/access/v1 JSON line per request to stdout")
		slowSize  = fs.Int("slowlog-size", 8, "slow-query flight recorder depth (N slowest + N most recent, with full traces); 0 disables")
		slowMS    = fs.Int64("slowlog-ms", 100, "wall-time threshold for the slow set, in milliseconds (0: every request eligible)")
	)
	if err := fs.Parse(args); err != nil {
		return exitOther
	}

	doc, err := loadDocument(*xmark, *nasa, *docPath)
	if err != nil {
		return fail(stderr, "load", err, exitOther)
	}

	cfg := server.Config{
		CacheSize:        *cacheSize,
		Workers:          *workers,
		QueueDepth:       *queue,
		DefaultTimeout:   *timeout,
		MaxParallel:      *maxPar,
		SlowlogSize:      *slowSize,
		SlowlogThreshold: time.Duration(*slowMS) * time.Millisecond,
	}
	if *jsonLog {
		cfg.AccessLog = stdout
	}
	srv := server.New(cfg)
	if err := srv.AddDocument(*docName, doc); err != nil {
		return fail(stderr, "setup", err, exitOther)
	}

	var nviews int
	switch {
	case *loadGlob != "":
		paths, err := filepath.Glob(*loadGlob)
		if err != nil {
			return fail(stderr, "load", err, exitOther)
		}
		if len(paths) == 0 {
			return fail(stderr, "load", fmt.Errorf("no view files match %q", *loadGlob), exitOther)
		}
		sort.Strings(paths)
		for _, p := range paths {
			if err := srv.AddViewFile(*docName, p); err != nil {
				return fail(stderr, "load", err, exitOther)
			}
			nviews++
		}
	case *viewsStr != "":
		views, err := viewjoin.ParseViews(*viewsStr)
		if err != nil {
			return fail(stderr, "parse", err, exitParse)
		}
		scheme, err := server.ParseScheme(*schemeStr)
		if err != nil {
			return fail(stderr, "parse", err, exitParse)
		}
		mviews, err := doc.MaterializeViews(views, scheme)
		if err != nil {
			return fail(stderr, "materialize", err, exitOther)
		}
		for _, mv := range mviews {
			if err := srv.AddView(*docName, mv); err != nil {
				return fail(stderr, "setup", err, exitOther)
			}
			nviews++
		}
	default:
		return fail(stderr, "setup", fmt.Errorf("provide -views or -load"), exitOther)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(stderr, "vjserve: serving %q (%d nodes, %d views) on %s\n",
			*docName, doc.NumNodes(), nviews, *addr)
		if ready != nil {
			ready <- *addr
		}
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return fail(stderr, "listen", err, exitOther)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections, reject new queries, wait
	// for in-flight evaluations, unmap the view files (safe only now, with
	// no reader left), then close.
	fmt.Fprintln(stderr, "vjserve: draining")
	if err := srv.Close(); err != nil {
		return fail(stderr, "shutdown", err, exitOther)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return fail(stderr, "shutdown", err, exitOther)
	}
	return 0
}

func loadDocument(xmarkScale float64, nasaDatasets int, path string) (*viewjoin.Document, error) {
	switch {
	case xmarkScale > 0:
		return viewjoin.GenerateXMark(xmarkScale), nil
	case nasaDatasets > 0:
		return viewjoin.GenerateNasa(nasaDatasets), nil
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return viewjoin.ParseDocument(f)
	default:
		return nil, fmt.Errorf("provide -doc, -xmark, or -nasa")
	}
}

// fail reports one failure as a single JSON line on stderr and returns the
// exit status.
func fail(stderr io.Writer, stage string, err error, code int) int {
	line, _ := json.Marshal(struct {
		Stage string `json:"stage"`
		Error string `json:"error"`
	}{Stage: stage, Error: err.Error()})
	fmt.Fprintf(stderr, "%s\n", line)
	return code
}
