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
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"viewjoin"
)

func main() {
	var (
		viewsStr  = flag.String("views", "", "semicolon-separated view patterns to materialize")
		schemeStr = flag.String("scheme", "LEp", "storage scheme: E, LE, LEp, T")
		outDir    = flag.String("out", "views", "output directory for .vjview files")
		xmark     = flag.Float64("xmark", 0, "materialize over a generated XMark document of this scale")
		nasa      = flag.Int("nasa", 0, "materialize over a generated Nasa document with this many datasets")
	)
	flag.Parse()
	if *viewsStr == "" {
		fail("missing -views")
	}
	doc, err := loadDocument(*xmark, *nasa, flag.Arg(0))
	if err != nil {
		fail("%v", err)
	}
	scheme, err := viewjoin.ParseScheme(*schemeStr)
	if err != nil {
		fail("%v", err)
	}
	views, err := viewjoin.ParseViews(*viewsStr)
	if err != nil {
		fail("%v", err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fail("%v", err)
	}
	for i, v := range views {
		mv, err := doc.MaterializeView(v, scheme, nil)
		if err != nil {
			fail("materialize %s: %v", v, err)
		}
		path := filepath.Join(*outDir, fmt.Sprintf("%02d.vjview", i))
		n, err := mv.SaveViewFile(path)
		if err != nil {
			fail("save %s: %v", path, err)
		}
		fmt.Printf("%-30s %8d entries %8d pointers %10d bytes -> %s\n",
			v, mv.NumEntries(), mv.NumPointers(), n, path)
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

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vjmaterialize: "+format+"\n", args...)
	os.Exit(1)
}
