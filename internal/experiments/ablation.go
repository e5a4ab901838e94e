package experiments

import (
	"fmt"

	"viewjoin"
	"viewjoin/internal/counters"
	"viewjoin/internal/dataset/nasa"
	"viewjoin/internal/engine"
	vjengine "viewjoin/internal/engine/viewjoin"
	"viewjoin/internal/store"
	"viewjoin/internal/views"
	"viewjoin/internal/vsq"
	"viewjoin/internal/workload"
)

// Ablation runs the reproduction's design-choice studies (DESIGN.md §3):
//
//  1. LEp threshold: the §III-C heuristic materializes following pointers
//     whose target is more than k = 1 entries away; sweeping k shows the
//     pointer-count/skipping trade-off.
//  2. Page size: storage footprint, padding and pages read by one fixed
//     query as the views' page size grows.
func Ablation(cfg Config) error {
	cfg = cfg.withDefaults()
	if err := ablationThreshold(cfg); err != nil {
		return err
	}
	return ablationPageSize(cfg)
}

func ablationThreshold(cfg Config) error {
	w := cfg.Out
	fmt.Fprintln(w, "Ablation 1: LEp following-pointer distance threshold (k=1 is the paper's rule), N1, VJ")
	fmt.Fprintf(w, "%-6s %12s %12s %12s %12s\n", "k", "pointers", "bytes", "scan", "derefs")
	doc := nasa.Generate(nasa.Config{Datasets: cfg.NasaDatasets})
	query := workload.NasaPath()[0] // N1
	v, err := vsq.Build(query.Pattern, query.Views)
	if err != nil {
		return err
	}
	for _, k := range []int32{0, 1, 3, 7, 1 << 20} {
		stores := make([]*store.ViewStore, len(query.Views))
		ptrs, bytes := 0, int64(0)
		for i, vp := range query.Views {
			mat := views.MustMaterialize(doc, vp)
			if k > 0 {
				mat = mat.ApplyPartialThreshold(k)
			}
			// Build as LE so the store keeps exactly the thresholded pointers.
			st, err := store.Build(mat, store.Linked, 0)
			if err != nil {
				return err
			}
			stores[i] = st
			ptrs += st.NumPointers()
			bytes += st.SizeBytes()
		}
		p, err := vjengine.Prepare(v, stores, nil)
		if err != nil {
			return err
		}
		var c counters.Counters
		if _, _, err := p.Run(counters.NewIO(&c, 0), engine.Options{}); err != nil {
			return err
		}
		label := fmt.Sprint(k)
		if k == 0 {
			label = "0(LE)"
		} else if k == 1 {
			label = "1(LEp)"
		} else if k == 1<<20 {
			label = "inf(~E)"
		}
		fmt.Fprintf(w, "%-6s %12d %12d %12d %12d\n", label, ptrs, bytes, c.ElementsScanned, c.PointerDerefs)
	}
	fmt.Fprintln(w, "note: on non-recursive data every skippable following pointer is distance 1,")
	fmt.Fprintln(w, "so k=1 (the paper's LEp) already removes all of them — element scans are")
	fmt.Fprintln(w, "unchanged (skipping is driven by the always-kept child pointers) while LE's")
	fmt.Fprintln(w, "extra pointers only add probe dereferences and bytes.")
	return nil
}

func ablationPageSize(cfg Config) error {
	w := cfg.Out
	fmt.Fprintln(w, "\nAblation 2: page size vs storage footprint and page I/O, Q14 views on XMark, TS+E")
	fmt.Fprintf(w, "%-8s %12s %12s %12s\n", "page", "view bytes", "pages read", "padding")
	d := viewjoin.GenerateXMark(cfg.XMarkScale)
	query := workload.All()["Q14"]
	q, err := viewjoin.ParseQuery(query.Pattern.String())
	if err != nil {
		return err
	}
	vs := make([]*viewjoin.Query, len(query.Views))
	for i, p := range query.Views {
		vs[i], err = viewjoin.ParseQuery(p.String())
		if err != nil {
			return err
		}
	}
	for _, pageSize := range []int{512, 1024, 4096, 16384} {
		var mviews []*viewjoin.MaterializedView
		var bytes int64
		for _, v := range vs {
			mv, err := d.MaterializeView(v, viewjoin.SchemeElement, &viewjoin.MaterializeOptions{PageSize: pageSize})
			if err != nil {
				return err
			}
			mviews = append(mviews, mv)
			bytes += mv.SizeBytes()
		}
		res, err := viewjoin.Evaluate(nil, d, q, mviews, viewjoin.EngineTwigStack, nil)
		if err != nil {
			return err
		}
		// Padding: page-granular bytes minus the 12-byte records themselves.
		var records int64
		for _, mv := range mviews {
			records += int64(mv.NumEntries()) * 12
		}
		fmt.Fprintf(w, "%-8d %12d %12d %11.1f%%\n", pageSize, bytes, res.Stats.PagesRead,
			100*float64(bytes-records)/float64(bytes))
	}
	return nil
}
