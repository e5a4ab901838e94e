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
//	POST /query          {"document","query","engine","views","timeout_ms","limit","cursor"}
//	POST /update         {"document","op","target","fragment"}; maintains every view, bumps the epoch
//	POST /debug/trace    same body as /query; returns the viewjoin/trace/v2 report inline
//	GET  /debug/slowlog  flight recorder: access lines of the 8 slowest + 8 most recent runs (viewjoin/slowlog/v4)
//	GET  /debug/plans    per-plan aggregates of every cached plan (viewjoin/plans/v1)
//	GET  /metrics        plan-cache, request and update counters, latency quantiles
//	GET  /healthz        liveness ("ok" or "draining")
//	GET  /documents      registered documents and views
//
// The serving flags (-cache, -workers, -queue, -timeout) default to
// server.DeployedConfig, the zero server.Config with its defaults filled
// in: a server started without them runs the configuration benchmark/'s
// serving workloads measure. Each request runs on one worker; the
// slow-query recorder behind /debug/slowlog is always on. Neither has a
// flag.
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
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"viewjoin"
	"viewjoin/internal/cli"
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
// receives the bound address once the listener is open, so -addr
// 127.0.0.1:0 names the port the kernel chose.
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
		jsonLog   = fs.Bool("json", false, "write one viewjoin/access/v1 JSON line per request to stdout")
		config    = serveFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return exitOther
	}

	doc, err := cli.LoadDocument(*xmark, *nasa, *docPath)
	if err != nil {
		return cli.Fail(stderr, "load", err, exitOther)
	}

	cfg := config()
	if *jsonLog {
		cfg.AccessLog = stdout
	}
	srv := server.New(cfg)
	if err := srv.AddDocument(*docName, doc); err != nil {
		return cli.Fail(stderr, "setup", err, exitOther)
	}

	var nviews int
	switch {
	case *loadGlob != "":
		paths, err := cli.ViewFiles(*loadGlob)
		if err != nil {
			return cli.Fail(stderr, "load", err, exitOther)
		}
		for _, p := range paths {
			if err := srv.AddViewFile(*docName, p); err != nil {
				return cli.Fail(stderr, "load", err, exitOther)
			}
			nviews++
		}
	case *viewsStr != "":
		views, err := viewjoin.ParseViews(*viewsStr)
		if err != nil {
			return cli.Fail(stderr, "parse", err, exitParse)
		}
		scheme, err := viewjoin.ParseScheme(*schemeStr)
		if err != nil {
			return cli.Fail(stderr, "parse", err, exitParse)
		}
		mviews, err := doc.MaterializeViews(views, scheme)
		if err != nil {
			return cli.Fail(stderr, "materialize", err, exitOther)
		}
		for _, mv := range mviews {
			if err := srv.AddView(*docName, mv); err != nil {
				return cli.Fail(stderr, "setup", err, exitOther)
			}
			nviews++
		}
	default:
		return cli.Fail(stderr, "setup", fmt.Errorf("provide -views or -load"), exitOther)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return cli.Fail(stderr, "listen", err, exitOther)
	}
	hs := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(stderr, "vjserve: serving %q (%d nodes, %d views) on %s\n",
		*docName, doc.NumNodes(), nviews, ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return cli.Fail(stderr, "listen", err, exitOther)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections, reject new queries, wait
	// for in-flight evaluations, unmap the view files (safe only now, with
	// no reader left), then close.
	fmt.Fprintln(stderr, "vjserve: draining")
	if err := srv.Close(); err != nil {
		return cli.Fail(stderr, "shutdown", err, exitOther)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return cli.Fail(stderr, "shutdown", err, exitOther)
	}
	return 0
}

// serveFlags defines the serving flags on fs, each defaulting to
// server.DeployedConfig's value, and returns the func that reads the
// parsed flags back as a server.Config.
func serveFlags(fs *flag.FlagSet) func() server.Config {
	d := server.DeployedConfig()
	var (
		cacheSize = fs.Int("cache", d.CacheSize, "plan cache capacity (prepared plans)")
		workers   = fs.Int("workers", d.Workers, "concurrent query evaluations")
		queue     = fs.Int("queue", d.QueueDepth, "admitted requests that may wait for a worker before 429 shedding (negative: unbounded)")
		timeout   = fs.Duration("timeout", d.DefaultTimeout, "default per-request deadline")
	)
	return func() server.Config {
		return server.Config{
			CacheSize:      *cacheSize,
			Workers:        *workers,
			QueueDepth:     *queue,
			DefaultTimeout: *timeout,
		}
	}
}
