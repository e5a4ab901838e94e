// Command vjmaterialize materializes a set of views over an XML document
// (or a generated dataset) and saves them to disk for later use with
// vjquery -load. This separates the offline view-maintenance cost from
// query evaluation, the way a view-based system would run in production.
//
// Usage:
//
//	vjmaterialize -views '//field//para; //footnote' -scheme LEp -out views/ nasa.xml
//	vjmaterialize -views '//site//item' -scheme LE -out views/ -xmark 1.0
//
// Each view is written to <out>/<n>.vjview; vjquery and vjserve reload
// them with -load '<out>/*.vjview' against the same document. A file is
// replaced by rename, never rewritten in place, so re-running over the
// same -out directory is safe beside a vjserve that has the old files
// mapped: it keeps serving the old views until it is restarted.
//
// Exit status: 0 on success, 1 on any failure, reported on stderr as one
// JSON line: {"stage":"load"|"parse"|"materialize"|"save", "error":"..."}.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"viewjoin"
	"viewjoin/internal/cli"
)

// exitFailure is the exit status of every failure, reported on stderr as
// one JSON line naming its stage.
const exitFailure = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, for testing: it parses args,
// materializes and saves the views, writes to the given streams and
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vjmaterialize", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		viewsStr  = fs.String("views", "", "semicolon-separated view patterns to materialize")
		schemeStr = fs.String("scheme", "LEp", "storage scheme: E, LE, LEp, T")
		outDir    = fs.String("out", "views", "output directory for .vjview files")
		xmark     = fs.Float64("xmark", 0, "materialize over a generated XMark document of this scale")
		nasa      = fs.Int("nasa", 0, "materialize over a generated Nasa document with this many datasets")
	)
	if err := fs.Parse(args); err != nil {
		return exitFailure
	}
	if *viewsStr == "" {
		return cli.Fail(stderr, "usage", fmt.Errorf("missing -views"), exitFailure)
	}
	doc, err := cli.LoadDocument(*xmark, *nasa, fs.Arg(0))
	if err != nil {
		return cli.Fail(stderr, "load", err, exitFailure)
	}
	scheme, err := viewjoin.ParseScheme(*schemeStr)
	if err != nil {
		return cli.Fail(stderr, "parse", err, exitFailure)
	}
	views, err := viewjoin.ParseViews(*viewsStr)
	if err != nil {
		return cli.Fail(stderr, "parse", err, exitFailure)
	}
	mviews, err := doc.MaterializeViews(views, scheme)
	if err != nil {
		return cli.Fail(stderr, "materialize", err, exitFailure)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return cli.Fail(stderr, "save", err, exitFailure)
	}
	for i, mv := range mviews {
		path := filepath.Join(*outDir, fmt.Sprintf("%02d.vjview", i))
		n, err := mv.SaveViewFile(path)
		if err != nil {
			return cli.Fail(stderr, "save", fmt.Errorf("%s: %w", path, err), exitFailure)
		}
		fmt.Fprintf(stdout, "%-30s %8d entries %8d pointers %10d bytes -> %s\n",
			views[i], mv.NumEntries(), mv.NumPointers(), n, path)
	}
	return 0
}
