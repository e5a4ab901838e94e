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
//	vjquery -q '//a//b' -views '//a; //b' -parallel 4 doc.xml # partitioned run
//	vjquery -q '//a//b' -views '//a; //b' -explain doc.xml   # EXPLAIN report
//	vjquery -q '//a//b' -views '//a; //b' -json doc.xml      # trace as JSON
//
// Engines: VJ (ViewJoin), TS (TwigStack), PS (PathStack), IJ (InterJoin).
// Schemes: E, LE, LEp, T. InterJoin requires -scheme T and path queries.
// -raw evaluates over raw element streams (TS/PS only) and is the only
// mode for -general queries with repeated element types.
//
// -explain prints a human EXPLAIN-style report (the view-segmented query
// with list bindings, per-phase self times, per-node costs); -json writes
// the same trace as one stable JSON document (schema viewjoin/trace/v1) to
// stdout, moving all human-readable output to stderr. With both flags the
// JSON document owns stdout and the EXPLAIN text goes to stderr.
//
// Exit status: 0 on success, 2 when the query or views fail to parse, 3
// when evaluation fails, 1 for any other error. Failures are reported on
// stderr as one-line JSON: {"stage":"parse"|"evaluate"|..., "error":"..."}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"viewjoin"
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
		limit     = fs.Int("limit", 0, "fetch at most this many matches in document order (overrides -n as the engine bound; 0 = -n governs)")
		offset    = fs.Int("offset", 0, "skip this many matches before the first returned one (applied before -limit, as SQL OFFSET)")
		loadGlob  = fs.String("load", "", "load saved views matching this glob (from vjmaterialize) instead of materializing")
		raw       = fs.Bool("raw", false, "evaluate over raw element streams without views (TS/PS only)")
		general   = fs.Bool("general", false, "allow repeated element types in the query (implies -raw)")
		parallel  = fs.Int("parallel", 0, "evaluate with up to this many range partitions (0 or 1 = sequential, -1 = GOMAXPROCS)")
		explain   = fs.Bool("explain", false, "print an EXPLAIN-style report: plan, per-phase and per-node costs")
		jsonOut   = fs.Bool("json", false, "write the evaluation trace as one JSON document to stdout")
	)
	if err := fs.Parse(args); err != nil {
		return exitOther
	}
	if *queryStr == "" {
		return fail(stderr, "usage", fmt.Errorf("missing -q query"), exitOther)
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
	// -n doubles as the fetch limit: there is no distinction between "print
	// at most n" and "fetch at most n" anymore — both push the bound into
	// the engine, which then stops (or caps its accumulation) at
	// offset+limit matches. -n 0 keeps the historical count-only full run;
	// an explicit -limit wins over -n.
	effLimit := *limit
	if effLimit <= 0 && *maxPrint > 0 {
		effLimit = *maxPrint
	}
	opts := &viewjoin.EvalOptions{
		DiskBased:   *diskBased,
		Parallelism: *parallel,
		Limit:       effLimit,
		Offset:      *offset,
		Tracer:      rec,
	}

	doc, err := loadDocument(*xmark, *nasa, fs.Arg(0))
	if err != nil {
		return fail(stderr, "load", err, exitOther)
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
		return fail(stderr, "parse", parseErr, exitParse)
	}
	engine, err := viewjoin.ParseEngine(*engineStr)
	if err != nil {
		return fail(stderr, "parse", err, exitParse)
	}

	if *raw {
		if engine == viewjoin.EngineViewJoin {
			engine = viewjoin.EngineTwigStack // raw streams: holistic default
		}
		res, err := viewjoin.EvaluateWithoutViews(doc, query, engine, opts)
		if err != nil {
			return fail(stderr, "evaluate", err, exitEvaluate)
		}
		fmt.Fprintf(human, "document: %d nodes; raw element streams (no views)\n", doc.NumNodes())
		printResult(human, query, engine, res, *maxPrint, effLimit, *offset)
		return report(stdout, human, res, *explain, *jsonOut, stderr)
	}

	if *loadGlob != "" {
		paths, err := filepath.Glob(*loadGlob)
		if err != nil {
			return fail(stderr, "load", err, exitOther)
		}
		if len(paths) == 0 {
			return fail(stderr, "load", fmt.Errorf("no view files match %q", *loadGlob), exitOther)
		}
		sort.Strings(paths)
		var mviews []*viewjoin.MaterializedView
		var totalBytes int64
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				return fail(stderr, "load", err, exitOther)
			}
			mv, err := doc.LoadViewBytes(data)
			if err != nil {
				return fail(stderr, "load", fmt.Errorf("load %s: %w", p, err), exitOther)
			}
			mviews = append(mviews, mv)
			totalBytes += mv.SizeBytes()
		}
		res, err := viewjoin.Evaluate(doc, query, mviews, engine, opts)
		if err != nil {
			return fail(stderr, "evaluate", err, exitEvaluate)
		}
		fmt.Fprintf(human, "document: %d nodes; %d loaded views (%d bytes)\n", doc.NumNodes(), len(mviews), totalBytes)
		printResult(human, query, engine, res, *maxPrint, effLimit, *offset)
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
		return fail(stderr, "parse", parseErr, exitParse)
	}
	if err := viewjoin.ValidateViewSet(query, views); err != nil {
		return fail(stderr, "validate", err, exitOther)
	}

	scheme, err := viewjoin.ParseScheme(*schemeStr)
	if err != nil {
		return fail(stderr, "parse", err, exitParse)
	}

	mviews, err := doc.MaterializeViews(views, scheme)
	if err != nil {
		return fail(stderr, "materialize", err, exitOther)
	}
	var totalBytes int64
	var totalPointers int
	for _, mv := range mviews {
		totalBytes += mv.SizeBytes()
		totalPointers += mv.NumPointers()
	}

	res, err := viewjoin.Evaluate(doc, query, mviews, engine, opts)
	if err != nil {
		return fail(stderr, "evaluate", err, exitEvaluate)
	}

	fmt.Fprintf(human, "document: %d nodes; views: %d (%s scheme, %d bytes, %d pointers)\n",
		doc.NumNodes(), len(views), scheme, totalBytes, totalPointers)
	printResult(human, query, engine, res, *maxPrint, effLimit, *offset)
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
			return fail(stderr, "report", err, exitOther)
		}
	}
	if jsonOut {
		if err := res.Trace.WriteJSON(stdout); err != nil {
			return fail(stderr, "report", err, exitOther)
		}
	}
	return 0
}

// printResult reports the match count, evaluation statistics, and up to
// maxPrint matches. maxPrint <= 0 suppresses all match output, header
// included (stats still print). limit/offset annotate the header when the
// run was paged, since the reported count is then the page's, not the
// full result's.
func printResult(w io.Writer, query *viewjoin.Query, engine viewjoin.Engine, res *viewjoin.Result, maxPrint, limit, offset int) {
	fmt.Fprintf(w, "stats: scanned=%d comparisons=%d derefs=%d pagesRead=%d pagesWritten=%d partitions=%d ttfm=%v\n",
		res.Stats.ElementsScanned, res.Stats.Comparisons, res.Stats.PointerDerefs,
		res.Stats.PagesRead, res.Stats.PagesWritten, res.Stats.Partitions,
		time.Duration(res.Stats.FirstMatchNanos))
	if maxPrint <= 0 {
		return
	}
	page := ""
	if limit > 0 && offset > 0 {
		page = fmt.Sprintf(" (limit %d, offset %d)", limit, offset)
	} else if limit > 0 {
		page = fmt.Sprintf(" (limit %d)", limit)
	} else if offset > 0 {
		page = fmt.Sprintf(" (offset %d)", offset)
	}
	fmt.Fprintf(w, "query %s via %s: %d matches in %v%s\n", query, engine, len(res.Matches), res.Stats.Duration, page)
	labels := query.Labels()
	for i, m := range res.Matches {
		if i >= maxPrint {
			fmt.Fprintf(w, "... and %d more\n", len(res.Matches)-i)
			break
		}
		var parts []string
		for j, n := range m {
			parts = append(parts, fmt.Sprintf("%s@%d", labels[j], n.Start))
		}
		fmt.Fprintln(w, " ", strings.Join(parts, " "))
	}
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
		return nil, fmt.Errorf("provide an XML file argument, -xmark, or -nasa")
	}
}

// fail reports one failure as a single JSON line on stderr and returns the
// exit status, so scripts can match on both the code and the stage.
func fail(stderr io.Writer, stage string, err error, code int) int {
	line, _ := json.Marshal(struct {
		Stage string `json:"stage"`
		Error string `json:"error"`
	}{Stage: stage, Error: err.Error()})
	fmt.Fprintf(stderr, "%s\n", line)
	return code
}
