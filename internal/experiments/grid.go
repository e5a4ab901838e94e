package experiments

import (
	"fmt"
	"time"

	"viewjoin"
	"viewjoin/internal/workload"
)

// cell is one timed column of a grid: an engine over views in one storage
// scheme, the same with disk-based output, or the engine over raw element
// streams (EvaluateWithoutViews). Its String is the suffix of its rows'
// keys in testdata/counters_golden.json.
type cell struct {
	engine viewjoin.Engine
	scheme viewjoin.StorageScheme
	disk   bool
	raw    bool
}

var (
	ijT   = cell{engine: viewjoin.EngineInterJoin, scheme: viewjoin.SchemeTuple}
	psE   = cell{engine: viewjoin.EnginePathStack, scheme: viewjoin.SchemeElement}
	tsE   = cell{engine: viewjoin.EngineTwigStack, scheme: viewjoin.SchemeElement}
	tsLE  = cell{engine: viewjoin.EngineTwigStack, scheme: viewjoin.SchemeLE}
	tsLEp = cell{engine: viewjoin.EngineTwigStack, scheme: viewjoin.SchemeLEp}
	vjE   = cell{engine: viewjoin.EngineViewJoin, scheme: viewjoin.SchemeElement}
	vjLE  = cell{engine: viewjoin.EngineViewJoin, scheme: viewjoin.SchemeLE}
	vjLEp = cell{engine: viewjoin.EngineViewJoin, scheme: viewjoin.SchemeLEp}
	psRaw = cell{engine: viewjoin.EnginePathStack, raw: true}
	tsRaw = cell{engine: viewjoin.EngineTwigStack, raw: true}

	// The paper's full matrix for path queries (Table I), TS standing in for
	// PathStack; twig queries drop InterJoin.
	pathCells = []cell{ijT, tsE, tsLE, tsLEp, vjE, vjLE, vjLEp}
	twigCells = pathCells[1:]
)

func (c cell) String() string {
	switch {
	case c.raw:
		return c.engine.String() + "/raw"
	case c.disk:
		return fmt.Sprintf("%s+%s/disk", c.engine, c.scheme)
	case c.engine == viewjoin.EngineInterJoin:
		// Evaluate scans the tuple views while it prepares, which a prepared
		// Run no longer does; the key says which of the two was timed.
		return fmt.Sprintf("%s+%s/whole+prepare", c.engine, c.scheme)
	}
	return fmt.Sprintf("%s+%s/whole", c.engine, c.scheme)
}

// width is c's time column: a disk cell adds its pages written.
func (c cell) width() int {
	if c.disk {
		return 29
	}
	return 24
}

func (c cell) onDisk() cell {
	c.disk = true
	return c
}

// evaluate returns the call one sample of c times.
func (c cell) evaluate(d *viewjoin.Document, q *viewjoin.Query, mats map[viewjoin.StorageScheme][]*viewjoin.MaterializedView) func() (*viewjoin.Result, error) {
	return func() (*viewjoin.Result, error) {
		var res *viewjoin.Result
		var err error
		if c.raw {
			res, err = viewjoin.EvaluateWithoutViews(nil, d, q, c.engine, nil)
		} else {
			res, err = viewjoin.Evaluate(nil, d, q, mats[c.scheme], c.engine, &viewjoin.RunOptions{DiskBased: c.disk})
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c, err)
		}
		return res, nil
	}
}

// row is one line of a grid: a catalogue query, run over XMark when its
// name starts with Q and over Nasa otherwise, as in the golden file.
type row struct {
	label string // first column
	query workload.Query
}

func rows(sets ...[]workload.Query) []row {
	var out []row
	for _, set := range sets {
		for _, q := range set {
			out = append(out, row{q.Name, q})
		}
	}
	return out
}

// interleavingRows are the Table III cases whose names start with prefix,
// labelled with their inter-view edge count.
func interleavingRows(prefix string) []row {
	var out []row
	for _, c := range workload.TableIII() {
		if c.Name[:2] == prefix {
			q := workload.Query{Name: c.Name, Pattern: c.Query, Views: c.Views, Path: c.Query.IsPath()}
			out = append(out, row{fmt.Sprintf("%-5s %6d", c.Name, c.Cond), q})
		}
	}
	return out
}

// grid is a §VI experiment as a declaration: every row evaluated in every
// cell. Fig 5 adds the best-VJ / best-TS ratio of medians to each row.
type grid struct {
	title string
	head  string // first column header
	rows  []row
	cells []cell
	ratio bool
}

var (
	motivation = grid{title: "Motivation: InterJoin (tuple views) vs PathStack (element views)", head: "query",
		rows: rows(workload.XMarkPath(), workload.NasaPath()), cells: []cell{ijT, psE}}
	fig5a = grid{title: "Fig 5(a): path queries on XMark — total processing time", head: "query",
		rows: rows(workload.XMarkPath()), cells: pathCells, ratio: true}
	fig5b = grid{title: "Fig 5(b): path queries on Nasa — total processing time", head: "query",
		rows: rows(workload.NasaPath()), cells: pathCells, ratio: true}
	fig5c = grid{title: "Fig 5(c): twig queries on XMark — total processing time", head: "query",
		rows: rows(workload.XMarkTwig()), cells: twigCells, ratio: true}
	fig5d = grid{title: "Fig 5(d): twig queries on Nasa — total processing time", head: "query",
		rows: rows(workload.NasaTwig()), cells: twigCells, ratio: true}
	// Fig 6: as #Cond drops, IJ, VJ+LE and VJ+LEp should speed up (more
	// precomputed joins to reuse); TS and VJ+E should not care.
	fig6a = grid{title: "Fig 6(a): impact of interleaving conditions — path query Np", head: "views  #Cond",
		rows: interleavingRows("PV"), cells: []cell{ijT, tsE, vjE, vjLE, vjLEp}}
	fig6b = grid{title: "Fig 6(b): impact of interleaving conditions — twig query Nt", head: "views  #Cond",
		rows: interleavingRows("TV"), cells: []cell{tsE, vjE, vjLE, vjLEp}}
	// Table V: disk-based output should cost both engines the spool's I/O;
	// a disk cell prints its pages written after its time.
	table5 = grid{title: "Table V: memory-based vs disk-based output (pages written in parentheses)", head: "query",
		rows:  rows(workload.XMarkTwig(), workload.NasaTwig()),
		cells: []cell{tsE, tsE.onDisk(), vjLE, vjLE.onDisk()}}
	// The comparison the paper's footnote 2 (§I) sets itself apart from: [22]
	// ran InterJoin with views against PathStack without, reporting up to
	// 1.5x; then the premise of the whole paper, TwigStack with and without
	// views.
	noViewsPaths = grid{title: "Views vs raw element streams ([22]'s comparison: IJ+views vs PS w/o views)", head: "query",
		rows: rows(workload.XMarkPath(), workload.NasaPath()), cells: []cell{ijT, psRaw, tsRaw}}
	noViewsTwigs = grid{title: "TwigStack with element-scheme views vs raw streams (twig queries)", head: "query",
		rows: rows(workload.XMarkTwig(), workload.NasaTwig()), cells: []cell{tsE, tsRaw}}
)

// run evaluates the grid and prints it: per cell median [Q1, Q3] of
// cfg.Repeats samples, elements scanned and comparisons. It fails when two
// cells of a row disagree on the match count. The samples come back one
// slice per row, in cell order.
func (g grid) run(cfg Config) ([][]sample, error) {
	w := cfg.Out
	fmt.Fprintf(w, "%s\nmedian [Q1, Q3] of %d samples per cell; scanned, cmp = elements scanned, comparisons\n",
		g.title, cfg.Repeats)
	fmt.Fprintf(w, "%-12s", g.head)
	for _, c := range g.cells {
		fmt.Fprintf(w, " %*s %8s %8s", c.width(), c, "scanned", "cmp")
	}
	if g.ratio {
		fmt.Fprintf(w, " %6s", "VJ/TS")
	}
	fmt.Fprintf(w, " %8s\n", "matches")

	var schemes []viewjoin.StorageScheme
	for _, c := range g.cells {
		if !c.raw {
			schemes = append(schemes, c.scheme)
		}
	}
	docs := map[bool]*viewjoin.Document{}
	var out [][]sample
	for _, r := range g.rows {
		xmark := r.query.Name[0] == 'Q'
		if docs[xmark] == nil {
			if xmark {
				docs[xmark] = viewjoin.GenerateXMark(cfg.XMarkScale)
			} else {
				docs[xmark] = viewjoin.GenerateNasa(cfg.NasaDatasets)
			}
		}
		d := docs[xmark]
		q, err := viewjoin.ParseQuery(r.query.Pattern.String())
		if err != nil {
			return nil, err
		}
		mats, err := materialize(d, r.query.Views, schemes...)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.query.Name, err)
		}
		runs := make([]func() (*viewjoin.Result, error), len(g.cells))
		for i, c := range g.cells {
			runs[i] = c.evaluate(d, q, mats)
		}
		ss, err := measure(cfg.Repeats, runs...)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.query.Name, err)
		}
		fmt.Fprintf(w, "%-12s", r.label)
		best := map[viewjoin.Engine]time.Duration{}
		for i, c := range g.cells {
			s := ss[i]
			if s.matches != ss[0].matches {
				return nil, fmt.Errorf("%s: %s returned %d matches, %s %d — engines disagree",
					r.query.Name, c, s.matches, g.cells[0], ss[0].matches)
			}
			t := s.String()
			if c.disk {
				t += fmt.Sprintf("(%d)", s.stats.PagesWritten)
			}
			fmt.Fprintf(w, " %*s %8d %8d", c.width(), t, s.stats.ElementsScanned, s.stats.Comparisons)
			if m, ok := best[c.engine]; !ok || s.quartile(2) < m {
				best[c.engine] = s.quartile(2)
			}
		}
		if g.ratio {
			fmt.Fprintf(w, " %5.2fx", float64(best[viewjoin.EngineViewJoin])/float64(best[viewjoin.EngineTwigStack]))
		}
		fmt.Fprintf(w, " %8d\n", ss[0].matches)
		out = append(out, ss)
	}
	return out, nil
}
