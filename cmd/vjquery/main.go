// Command vjquery evaluates a tree pattern query over an XML file using
// materialized views, printing the matches and the evaluation statistics.
//
// Usage:
//
//	vjquery -q '//a[//f]//b//e' -views '//a//e; //b; //f' doc.xml
//	vjquery -q '//a//b//c' -views '//a//c; //b' -engine IJ -scheme T doc.xml
//	vjquery -q '//site//item' -xmark 0.5            # run against a generated doc
//	vjquery -q '//a//b' -load 'views/*.vjview' doc.xml  # reuse saved views
//	vjquery -q '//a//b//a' -general -raw doc.xml    # general query, no views
//	vjquery -q '//a//b' -views '//a; //b' -explain doc.xml   # EXPLAIN report
//	vjquery -q '//a//b' -views '//a; //b' -json doc.xml      # trace as JSON
//
// Engines: VJ (ViewJoin), TS (TwigStack), PS (PathStack), IJ (InterJoin).
// Schemes: E, LE, LEp, T. InterJoin requires -scheme T and path queries.
// -raw evaluates over raw element streams (TS/PS only) and is the only
// mode for -general queries with repeated element types.
//
// -explain prints a human EXPLAIN-style report (the view-segmented query
// with list bindings, per-phase self times, the run's counters); -json writes
// the same trace as one stable JSON document (schema viewjoin/trace/v2) to
// stdout, moving all human-readable output to stderr. With both flags the
// JSON document owns stdout and the EXPLAIN text goes to stderr.
//
// Exit status: 0 on success, 2 when the query or views fail to parse, 3
// when evaluation fails, 1 for any other error. Failures are reported on
// stderr as one-line JSON: {"stage":"parse"|"evaluate"|..., "error":"..."}.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"viewjoin"
	"viewjoin/internal/cli"
	"viewjoin/internal/obs"
)

// Exit statuses. Parse and evaluate failures are distinguished so scripts
// can tell a bad query from a query the chosen engine cannot answer.
const (
	exitOther    = 1
	exitParse    = 2
	exitEvaluate = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, for testing: it parses args,
// evaluates, writes to the given streams and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vjquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		queryStr  = fs.String("q", "", "tree pattern query (XPath fragment with /, //, [])")
		viewsStr  = fs.String("views", "", "semicolon-separated covering views (default: one single-node view per query node)")
		engineStr = fs.String("engine", "VJ", "evaluation engine: VJ, TS, PS, IJ")
		schemeStr = fs.String("scheme", "LEp", "view storage scheme: E, LE, LEp, T")
		diskBased = fs.Bool("disk", false, "use the disk-based output approach")
		xmark     = fs.Float64("xmark", 0, "evaluate over a generated XMark document of this scale instead of a file")
		nasa      = fs.Int("nasa", 0, "evaluate over a generated Nasa document with this many datasets instead of a file")
		maxPrint  = fs.Int("n", 10, "fetch and print at most this many matches — pushed into the engine as a first-k bound (0 = full run, no match output)")
		offset    = fs.Int("offset", 0, "skip this many matches before the first returned one (applied before -n, as SQL OFFSET)")
		loadGlob  = fs.String("load", "", "load saved views matching this glob (from vjmaterialize) instead of materializing")
		raw       = fs.Bool("raw", false, "evaluate over raw element streams without views (TS/PS only)")
		general   = fs.Bool("general", false, "allow repeated element types in the query (implies -raw)")
		explain   = fs.Bool("explain", false, "print an EXPLAIN-style report: plan, per-phase self times and the run's counters")
		jsonOut   = fs.Bool("json", false, "write the evaluation trace as one JSON document to stdout")
	)
	if err := fs.Parse(args); err != nil {
		return exitOther
	}
	if *queryStr == "" {
		return cli.Fail(stderr, "usage", fmt.Errorf("missing -q query"), exitOther)
	}

	// Human-readable output moves to stderr when stdout carries the JSON
	// trace document.
	human := stdout
	if *jsonOut {
		human = stderr
	}

	// Tracing is on whenever a report is requested.
	var rec *obs.Recorder
	if *explain || *jsonOut {
		rec = obs.NewRecorder()
	}
	// -n is the fetch limit: both "print at most n" and "fetch at most n"
	// push the bound into the engine, which then stops (or caps its
	// accumulation) at offset+n matches; printResult skips the first
	// offset of them. -n 0 is a count-only full run.
	opts := &viewjoin.RunOptions{
		DiskBased: *diskBased,
		Tracer:    rec,
	}
	if *maxPrint > 0 {
		opts.Limit = *maxPrint + max(*offset, 0)
	}

	doc, err := cli.LoadDocument(*xmark, *nasa, fs.Arg(0))
	if err != nil {
		return cli.Fail(stderr, "load", err, exitOther)
	}
	rec.BeginPhase(obs.PhaseParse)
	parse := viewjoin.ParseQuery
	if *general {
		parse = viewjoin.ParseQueryGeneral
		*raw = true
	}
	query, parseErr := parse(*queryStr)
	rec.EndPhase(obs.PhaseParse)
	if parseErr != nil {
		return cli.Fail(stderr, "parse", parseErr, exitParse)
	}
	engine, err := viewjoin.ParseEngine(*engineStr)
	if err != nil {
		return cli.Fail(stderr, "parse", err, exitParse)
	}

	if *raw {
		if engine == viewjoin.EngineViewJoin {
			engine = viewjoin.EngineTwigStack // raw streams: holistic default
		}
		res, err := viewjoin.EvaluateWithoutViews(nil, doc, query, engine, opts)
		if err != nil {
			return cli.Fail(stderr, "evaluate", err, exitEvaluate)
		}
		fmt.Fprintf(human, "document: %d nodes; raw element streams (no views)\n", doc.NumNodes())
		printResult(human, query, engine, res, *maxPrint, *offset)
		return report(stdout, human, res, *explain, *jsonOut, stderr)
	}

	if *loadGlob != "" {
		paths, err := cli.ViewFiles(*loadGlob)
		if err != nil {
			return cli.Fail(stderr, "load", err, exitOther)
		}
		var mviews []*viewjoin.MaterializedView
		var totalBytes int64
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				return cli.Fail(stderr, "load", err, exitOther)
			}
			mv, err := doc.LoadViewBytes(data)
			if err != nil {
				return cli.Fail(stderr, "load", fmt.Errorf("load %s: %w", p, err), exitOther)
			}
			mviews = append(mviews, mv)
			totalBytes += mv.SizeBytes()
		}
		res, err := viewjoin.Evaluate(nil, doc, query, mviews, engine, opts)
		if err != nil {
			return cli.Fail(stderr, "evaluate", err, exitEvaluate)
		}
		fmt.Fprintf(human, "document: %d nodes; %d loaded views (%d bytes)\n", doc.NumNodes(), len(mviews), totalBytes)
		printResult(human, query, engine, res, *maxPrint, *offset)
		return report(stdout, human, res, *explain, *jsonOut, stderr)
	}

	if *viewsStr == "" {
		var parts []string
		for _, l := range query.Labels() {
			parts = append(parts, "//"+l)
		}
		*viewsStr = strings.Join(parts, "; ")
	}
	rec.BeginPhase(obs.PhaseParse)
	views, parseErr := viewjoin.ParseViews(*viewsStr)
	rec.EndPhase(obs.PhaseParse)
	if parseErr != nil {
		return cli.Fail(stderr, "parse", parseErr, exitParse)
	}
	if err := viewjoin.ValidateViewSet(query, views); err != nil {
		return cli.Fail(stderr, "validate", err, exitOther)
	}

	scheme, err := viewjoin.ParseScheme(*schemeStr)
	if err != nil {
		return cli.Fail(stderr, "parse", err, exitParse)
	}

	mviews, err := doc.MaterializeViews(views, scheme)
	if err != nil {
		return cli.Fail(stderr, "materialize", err, exitOther)
	}
	var totalBytes int64
	var totalPointers int
	for _, mv := range mviews {
		totalBytes += mv.SizeBytes()
		totalPointers += mv.NumPointers()
	}

	res, err := viewjoin.Evaluate(nil, doc, query, mviews, engine, opts)
	if err != nil {
		return cli.Fail(stderr, "evaluate", err, exitEvaluate)
	}

	fmt.Fprintf(human, "document: %d nodes; views: %d (%s scheme, %d bytes, %d pointers)\n",
		doc.NumNodes(), len(views), scheme, totalBytes, totalPointers)
	printResult(human, query, engine, res, *maxPrint, *offset)
	return report(stdout, human, res, *explain, *jsonOut, stderr)
}

// report renders the requested trace views: the EXPLAIN text on the human
// stream, the JSON document alone on stdout.
func report(stdout, human io.Writer, res *viewjoin.Result, explain, jsonOut bool, stderr io.Writer) int {
	if res.Trace == nil {
		return 0
	}
	if explain {
		if err := res.Trace.WriteExplain(human); err != nil {
			return cli.Fail(stderr, "report", err, exitOther)
		}
	}
	if jsonOut {
		if err := res.Trace.WriteJSON(stdout); err != nil {
			return cli.Fail(stderr, "report", err, exitOther)
		}
	}
	return 0
}

// printResult reports the match count, evaluation statistics, and up to
// maxPrint matches after the first offset. maxPrint <= 0 suppresses all
// match output, header included (stats still print). Otherwise
// offset+maxPrint was the run's limit, and the header says so, since the
// reported count is then the page's, not the full result's.
func printResult(w io.Writer, query *viewjoin.Query, engine viewjoin.Engine, res *viewjoin.Result, maxPrint, offset int) {
	fmt.Fprintf(w, "stats: scanned=%d comparisons=%d derefs=%d pagesRead=%d pagesWritten=%d ttfm=%v\n",
		res.Stats.ElementsScanned, res.Stats.Comparisons, res.Stats.PointerDerefs,
		res.Stats.PagesRead, res.Stats.PagesWritten,
		time.Duration(res.Stats.FirstMatchNanos))
	if maxPrint <= 0 {
		return
	}
	page := fmt.Sprintf(" (limit %d)", maxPrint)
	if offset > 0 {
		page = fmt.Sprintf(" (limit %d, offset %d)", maxPrint, offset)
	}
	// The run fetched offset+maxPrint rows; the page is what follows the
	// offset.
	rows := res.Matches[min(max(offset, 0), len(res.Matches)):]
	fmt.Fprintf(w, "query %s via %s: %d matches in %v%s\n", query, engine, len(rows), res.Stats.Duration, page)
	labels := query.Labels()
	for i, m := range rows {
		if i >= maxPrint {
			fmt.Fprintf(w, "... and %d more\n", len(rows)-i)
			break
		}
		var parts []string
		for j, n := range m {
			parts = append(parts, fmt.Sprintf("%s@%d", labels[j], n.Start))
		}
		fmt.Fprintln(w, " ", strings.Join(parts, " "))
	}
}
