package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"viewjoin"
	"viewjoin/internal/counters"
	"viewjoin/internal/store"
	"viewjoin/internal/tpq"
	"viewjoin/internal/views"
	"viewjoin/internal/workload"
	"viewjoin/internal/xmltree"
)

// The traced pass gives the per-layer numbers. Every layer is measured
// from outside, by timing calls into its exported functions; where the
// program already reports a layer's time (obs phase report, the server's
// duration_us) that report becomes a child span.

// layers maps a per-layer metric name to its value, starting from 0 for
// every declared name.
type layers map[string]float64

// tracedPass alternates untraced and traced rounds for half of
// cfg.seconds, then measures the engines on the workload's catalogue and
// probes the storage and planning layers on its document.
func tracedPass(cfg config, in *instance, res *result) error {
	L := make(layers)
	rounds, sweeps := newSpanRecorder(), newSpanRecorder()

	var off, on []*roundResult
	deadline := time.Now().Add(time.Duration(cfg.seconds / 2 * float64(time.Second)))
	for n := 0; n < cfg.rounds || time.Now().Before(deadline); n++ {
		off = append(off, runRound(in, nil))
		on = append(on, runRound(in, rounds))
	}
	all := append(append([]*roundResult(nil), off...), on...)
	for _, r := range all {
		res.Attempted += r.ops
		res.Failed += r.failed
	}
	clientLayers(in, off, L)
	L["obs.span_overhead_ratio"] = ratio(median(roundWalls(on)), median(roundWalls(off)))
	if in.srv != nil {
		if err := serverLayers(in, on, rounds, L); err != nil {
			return err
		}
	}

	vc := newViewCache(in.doc)
	if err := engineLayers(in, vc, sweeps, L); err != nil {
		return err
	}
	if err := probeLayers(cfg, in, vc, L); err != nil {
		return err
	}
	if in.upd != nil {
		maintainLayers(all, L)
		if err := replayLayers(in, L); err != nil {
			return err
		}
	}

	for _, m := range perLayer() {
		res.Metrics[m.name] = metric{Value: L[m.name], Unit: m.unit}
	}
	if cfg.traceOut == "" {
		return nil
	}
	f, err := os.Create(cfg.traceOut)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := json.NewEncoder(f).Encode(map[string][]span{"rounds": rounds.spans, "engine_sweeps": sweeps.spans}); err != nil {
		return err
	}
	return f.Close()
}

// ratio is a/b, and 0 where the workload gave the layer nothing to do.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func roundWalls(rs []*roundResult) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, r.wall.Seconds())
	}
	return out
}

// clientLayers reports what the client and the Go runtime saw over the
// untraced rounds: the tail, which query moved, and the collector's share.
func clientLayers(in *instance, rs []*roundResult, L layers) {
	var p99, u50, u90 []float64
	perClass := make([][]float64, len(in.classes))
	var wall, gcs float64
	for _, r := range rs {
		p99 = append(p99, ms(percentile(r.latencies(isQuery), 0.99)))
		if u := r.latencies(isUpdate); len(u) > 0 {
			u50 = append(u50, ms(percentile(u, 0.50)))
			u90 = append(u90, ms(percentile(u, 0.90)))
		}
		for c := range perClass {
			lat := r.latencies(func(class int) bool { return class == c })
			perClass[c] = append(perClass[c], ms(percentile(lat, 0.50)))
		}
		wall += r.wall.Seconds()
		gcs += float64(r.mem1.NumGC - r.mem0.NumGC)
	}
	L["client.query_p99_ms"] = median(p99)
	L["update.p50_ms"], L["update.p90_ms"] = median(u50), median(u90)
	for c, name := range in.classes {
		L["query."+name+".p50_ms"] = median(perClass[c])
	}
	last := rs[len(rs)-1].mem1
	L["runtime.gc_cycles_per_s"] = ratio(gcs, wall)
	L["runtime.gc_cpu_frac"] = last.GCCPUFraction
	L["runtime.heap_peak_mb"] = float64(last.HeapSys) / mib
}

// serverLayers splits a served request into the handler stack and the
// engine run it wraps, from the traced rounds' spans and the server's own
// /metrics.
func serverLayers(in *instance, rs []*roundResult, tr *spanRecorder, L layers) error {
	self := selfTimes(tr.spans)
	var overhead []float64
	var overheadTotal int64
	for i, s := range tr.spans {
		if s.Name == "server.handler" {
			overhead = append(overhead, float64(self[i])/1e3)
			overheadTotal += self[i]
		}
	}
	var rows, body int64
	var first []float64
	var miss []time.Duration
	for _, r := range rs {
		for _, rec := range r.recs {
			rows += rec.rows
			body += rec.bodyBytes
			first = append(first, rec.firstMatchUS...)
			miss = append(miss, rec.missLat...)
		}
	}
	L["server.overhead_us_p50"] = median(overhead)
	L["server.encode_ns_per_match"] = ratio(float64(overheadTotal), float64(rows))
	L["server.response_bytes_per_match"] = ratio(float64(body), float64(rows))
	L["server.first_match_us_p50"] = median(first)
	sort.Slice(miss, func(i, j int) bool { return miss[i] < miss[j] })
	L["server.reprepare_us_p50"] = us(percentile(miss, 0.50))

	w := httptest.NewRecorder()
	in.srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m struct {
		PlanCache struct{ Hits, Misses, Prepares float64 } `json:"plan_cache"`
		Requests  struct{ Shed, Timeouts float64 }
	}
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}
	L["server.plan_cache_hit_ratio"] = ratio(m.PlanCache.Hits, m.PlanCache.Hits+m.PlanCache.Misses)
	L["server.prepares"] = m.PlanCache.Prepares
	L["server.shed"], L["server.timeouts"] = m.Requests.Shed, m.Requests.Timeouts
	return nil
}

// maintainLayers reads how the server maintained the views off the
// /update responses of every round.
func maintainLayers(rs []*roundResult, L layers) {
	var maintains, fast, compactions int
	var shared, total int64
	for _, r := range rs {
		for _, rec := range r.recs {
			maintains += rec.maintains
			fast += rec.fastPaths
			compactions += rec.compactions
			shared += rec.sharedPages
			total += rec.totalPages
		}
	}
	L["maintain.fast_path_ratio"] = ratio(float64(fast), float64(maintains))
	L["maintain.shared_page_ratio"] = ratio(float64(shared), float64(total))
	L["maintain.compactions"] = float64(compactions)
}

// engineLayers runs traced library sweeps of the workload's catalogue on
// each engine over the storage scheme the paper pairs it with, and splits
// a run into the engine's join loop, enumeration and result building from
// the span self-times. The counters are the engines' own and repeat
// exactly.
func engineLayers(in *instance, vc *viewCache, tr *spanRecorder, L layers) error {
	const sweeps = 3
	want := make(map[string]int)
	type armTotals struct {
		counts  [len(engineCounts)]int64
		matches int
		run     time.Duration
	}
	totals := make(map[string]armTotals)
	for _, arm := range engineArms {
		plans, err := buildPlans(vc, in.cat, arm.scheme, arm.engine, arm.pathOnly)
		if err != nil {
			return err
		}
		eng := engineLayer[arm.engine]
		for _, p := range plans {
			res, err := p.prepared.Run() // warm-up, and the engines must agree
			if err != nil {
				return fmt.Errorf("engine sweep %s %v: %w", p.cat.name, arm.engine, err)
			}
			p.count = len(res.Matches)
			if n, ok := want[p.cat.name]; ok && n != p.count {
				return fmt.Errorf("engine sweep %s: %v returns %d rows, VJ %d", p.cat.name, arm.engine, p.count, n)
			}
			want[p.cat.name] = p.count
		}
		var t armTotals
		var plain, traced []float64
		for s := 0; s < sweeps; s++ {
			rec := &clientRec{}
			t0 := time.Now()
			sweepPlans(plans, 1, rec)
			plain = append(plain, time.Since(t0).Seconds())

			rec = &clientRec{tr: tr, roundSpan: tr.begin("sweep."+eng, -1, 0)}
			t0 = time.Now()
			for i, p := range plans {
				if res := rec.runPlan(i, p); res != nil {
					for c, n := range engineCountsOf(res.Stats) {
						t.counts[c] += n
					}
					t.matches += len(res.Matches)
				}
			}
			traced = append(traced, time.Since(t0).Seconds())
			tr.end(rec.roundSpan)
			for _, op := range rec.ops {
				t.run += op.lat
			}
			if rec.failed > 0 {
				return fmt.Errorf("engine sweep %v: %d runs changed their match count", arm.engine, rec.failed)
			}
		}
		totals[eng] = t
		if arm.engine == viewjoin.EngineViewJoin {
			L["obs.recorder_overhead_ratio"] = ratio(median(traced), median(plain))
		}
	}

	self, _ := selfByName(tr.spans)
	perSweep := func(ns int64) float64 { return float64(ns) / 1e6 / sweeps }
	for _, eng := range []string{"viewjoin", "twigstack"} {
		t, evaluate := totals[eng], self["engine."+eng+".evaluate"]
		pre := "engine." + eng + "."
		L[pre+"evaluate_self_ms_per_sweep"] = perSweep(evaluate)
		L[pre+"ns_per_scanned"] = ratio(float64(evaluate), float64(t.counts[scanned]))
		for c, n := range t.counts {
			L[pre+engineCounts[c]] = float64(n) / sweeps
		}
	}
	L["engine.viewjoin.evaluate_share"] = ratio(float64(self["engine.viewjoin.evaluate"]), float64(totals["viewjoin"].run))
	L["engine.pathstack.sweep_ms"] = perSweep(int64(totals["pathstack"].run))
	L["engine.interjoin.sweep_ms"] = perSweep(int64(totals["interjoin"].run))
	vj, ts := totals["viewjoin"], totals["twigstack"]
	L["engine.vj_over_ts.time_ratio"] = ratio(float64(self["engine.viewjoin.evaluate"]), float64(self["engine.twigstack.evaluate"]))
	L["engine.vj_over_ts.comparisons_ratio"] = ratio(float64(vj.counts[comparisons]), float64(ts.counts[comparisons]))
	L["enum.self_ms_per_sweep"] = perSweep(self["enum.viewjoin"])
	L["enum.ns_per_match"] = ratio(float64(self["enum.viewjoin"]), float64(vj.matches))
	L["enum.share"] = ratio(float64(self["enum.viewjoin"]), float64(vj.run))
	L["output.self_ms_per_sweep"] = perSweep(self["output.viewjoin"])
	L["output.ns_per_match"] = ratio(float64(self["output.viewjoin"]), float64(vj.matches))
	L["counters.pool_hit_ratio"] = ratio(float64(vj.counts[pageHits]), float64(vj.counts[pageHits]+vj.counts[pagesRead]))
	return nil
}

// timeEach times fn(i) for every i in [0,n), reps times over, and returns
// the median duration of one call.
func timeEach(n, reps int, fn func(i int) error) (time.Duration, error) {
	var d []time.Duration
	for r := 0; r < reps; r++ {
		for i := 0; i < n; i++ {
			t := time.Now()
			if err := fn(i); err != nil {
				return 0, err
			}
			d = append(d, time.Since(t))
		}
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return percentile(d, 0.50), nil
}

// mallocs counts the heap allocations fn makes.
func mallocs(fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs)
}

// probeLayers times the layers below a query run in isolation, on the
// workload's own document and catalogue: parsing, view materialization,
// store layout, persistence, cursors, planning and view selection.
func probeLayers(cfg config, in *instance, vc *viewCache, L layers) error {
	L["xmltree.generate_ns_per_node"] = ratio(float64(in.genDur), float64(in.nodes))
	L["xmltree.parse_ns_per_node"] = ratio(float64(in.parseDur), float64(in.nodes))

	d, err := timeEach(len(in.cat), 20, func(i int) error {
		if _, err := viewjoin.ParseQuery(in.cat[i].query); err != nil {
			return err
		}
		_, err := viewjoin.ParseViews(strings.Join(in.cat[i].views, "; "))
		return err
	})
	if err != nil {
		return err
	}
	L["tpq.parse_us_p50"] = us(d)

	// views and store, through their own packages: materialize each
	// distinct view pattern, then lay it out in LEp.
	tree, err := xmltree.Parse(bytes.NewReader(in.xml))
	if err != nil {
		return err
	}
	seen := make(map[string]bool)
	var materialize, build time.Duration
	var entries int
	var largest *views.Materialized
	for _, c := range in.cat {
		for _, v := range c.views {
			if seen[v] {
				continue
			}
			seen[v] = true
			pattern, err := tpq.Parse(v)
			if err != nil {
				return err
			}
			t := time.Now()
			m, err := views.Materialize(tree, pattern)
			if err != nil {
				return err
			}
			materialize += time.Since(t)
			t = time.Now()
			if _, err := store.Build(m, store.LinkedPartial, 0); err != nil {
				return err
			}
			build += time.Since(t)
			entries += m.TotalEntries()
			if largest == nil || m.TotalEntries() > largest.TotalEntries() {
				largest = m
			}
		}
	}
	L["views.materialize_ns_per_entry"] = ratio(float64(materialize), float64(entries))
	L["views.entries"] = float64(entries)
	L["store.build_ns_per_entry.LEp"] = ratio(float64(build), float64(entries))

	// Space per scheme. E, LE and LEp hold every catalogue view; the tuple
	// scheme stores the path queries' views only, as InterJoin takes them.
	for _, s := range []viewjoin.StorageScheme{viewjoin.SchemeTuple, viewjoin.SchemeElement, viewjoin.SchemeLE, viewjoin.SchemeLEp} {
		var size, n, ptrs float64
		for _, c := range in.cat {
			if s == viewjoin.SchemeTuple && !c.path {
				continue
			}
			for _, v := range c.views {
				mv, err := vc.get(v, s)
				if err != nil {
					return err
				}
				size += float64(mv.SizeBytes())
				n += float64(mv.NumEntries())
				ptrs += float64(mv.NumPointers())
			}
		}
		L["store.bytes_per_entry."+s.String()] = ratio(size, n)
		if s == viewjoin.SchemeLE || s == viewjoin.SchemeLEp {
			L["store.pointers_per_entry."+s.String()] = ratio(ptrs, n)
		}
	}

	if err := persistLayers(in, vc, L); err != nil {
		return err
	}

	// A bare cursor scan of the largest view's lists, with the default
	// simulated buffer pool and with none (every touch a miss).
	scan := func(kind store.Kind, pool int) error {
		vs, err := store.Build(largest, kind, 0)
		if err != nil {
			return err
		}
		d, err := timeEach(1, 9, func(int) error {
			var c counters.Counters
			io := counters.NewIO(&c, pool)
			for _, l := range vs.Lists {
				for cur := l.Open(io); cur.Valid(); cur.Next() {
				}
			}
			return nil
		})
		name := "store.cursor_ns_per_record." + kind.String()
		if pool < 0 {
			name += "-nopool"
		}
		L[name] = ratio(float64(d), float64(vs.TotalEntries()))
		return err
	}
	for _, kind := range []store.Kind{store.Element, store.Linked, store.LinkedPartial} {
		if err := scan(kind, 0); err != nil {
			return err
		}
	}
	if err := scan(store.LinkedPartial, -1); err != nil {
		return err
	}

	// Planning: Prepare of every catalogue query over its LEp views.
	plans, err := buildPlans(vc, in.cat, viewjoin.SchemeLEp, viewjoin.EngineViewJoin, false)
	if err != nil {
		return err
	}
	prepare := func(i int) error {
		_, err := viewjoin.Prepare(in.doc, plans[i].q, plans[i].views, viewjoin.EngineViewJoin, nil)
		return err
	}
	if d, err = timeEach(len(plans), 5, prepare); err != nil {
		return err
	}
	L["prepare.us_p50"] = us(d)
	L["prepare.allocs"] = mallocs(func() {
		for i := range plans {
			prepare(i)
		}
	}) / float64(len(plans))

	return viewselLayer(cfg, L)
}

// persistLayers saves the largest LEp view and loads it back through the
// resident and the mmap backend.
func persistLayers(in *instance, vc *viewCache, L layers) error {
	var mv *viewjoin.MaterializedView
	for _, v := range vc.order {
		if v.Scheme() == viewjoin.SchemeLEp && (mv == nil || v.SizeBytes() > mv.SizeBytes()) {
			mv = v
		}
	}
	var image bytes.Buffer
	d, err := timeEach(1, 5, func(int) error {
		image.Reset()
		_, err := mv.SaveView(&image)
		return err
	})
	if err != nil {
		return err
	}
	L["store.save_us_per_page"] = us(d) / (float64(mv.SizeBytes()) / store.DefaultPageSize)
	load := func(int) error {
		_, err := in.doc.LoadViewBytes(image.Bytes())
		return err
	}
	if d, err = timeEach(1, 9, load); err != nil {
		return err
	}
	L["store.load_resident_us_p50"] = us(d)
	L["store.load_allocs"] = mallocs(func() { load(0) })

	// The mapping needs a file; it lives under the build directory the
	// checkout already ignores and is removed again.
	dir, err := os.MkdirTemp(buildDir(), "views-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "largest.vjview")
	if err := os.WriteFile(path, image.Bytes(), 0o644); err != nil {
		return err
	}
	d, err = timeEach(1, 9, func(int) error {
		v, err := in.doc.LoadViewMmap(path)
		if err != nil {
			return err
		}
		return v.Release()
	})
	L["store.open_mmap_us_p50"] = us(d)
	return err
}

// buildDir is where the benchmark may write: .bench_build under the
// working directory.
func buildDir() string {
	os.MkdirAll(".bench_build", 0o755)
	return ".bench_build"
}

// viewselLayer times cost-based view selection on the paper's Table II
// pool, over the reduced Nasa document whatever the workload's family.
func viewselLayer(cfg config, L layers) error {
	xml, err := nasaXML(cfg.sizes.oracleNasa, cfg.seed)
	if err != nil {
		return err
	}
	doc, err := viewjoin.ParseDocument(bytes.NewReader(xml))
	if err != nil {
		return err
	}
	q, err := viewjoin.ParseQuery(workload.Nt().String())
	if err != nil {
		return err
	}
	vc := newViewCache(doc)
	for _, row := range workload.TableIIPool() {
		if _, err := vc.get(row.View.String(), viewjoin.SchemeLE); err != nil {
			return err
		}
	}
	d, err := timeEach(1, 9, func(int) error {
		_, err := viewjoin.SelectViews(vc.order, q, viewjoin.DefaultLambda)
		return err
	})
	L["viewsel.select_us"] = us(d)
	return err
}

// replayLayers replays the updates the server received against the
// library, on a fresh parse of the same document with the same views, and
// times Document.Apply, the Maintain of all views and, for comparison, a
// full re-materialization of them every fourth update. The two view times
// are per view: an update's total divided by the number of views, which
// differ in size by orders of magnitude.
func replayLayers(in *instance, L layers) error {
	doc, err := viewjoin.ParseDocument(bytes.NewReader(in.xml))
	if err != nil {
		return err
	}
	var patterns []*viewjoin.Query
	var mviews []*viewjoin.MaterializedView
	for _, mv := range in.views {
		fresh, err := doc.MaterializeView(mv.Pattern(), mv.Scheme(), nil)
		if err != nil {
			return err
		}
		patterns, mviews = append(patterns, mv.Pattern()), append(mviews, fresh)
	}
	var apply, maintain, remat []float64
	for i, lu := range in.upd.log[:min(len(in.upd.log), 48)] {
		u := viewjoin.Update{Op: lu.op, TargetStart: lu.target}
		if lu.fragment != "" {
			if u.Fragment, err = viewjoin.ParseDocumentString(lu.fragment); err != nil {
				return err
			}
		}
		t := time.Now()
		au, err := doc.Apply(u)
		if err != nil {
			return fmt.Errorf("replay update %d: %w", i, err)
		}
		apply = append(apply, ms(time.Since(t)))
		t = time.Now()
		for _, mv := range mviews {
			if _, err := mv.Maintain(au); err != nil {
				return fmt.Errorf("replay update %d: %w", i, err)
			}
		}
		maintain = append(maintain, ms(time.Since(t))/float64(len(mviews)))
		if i%4 == 0 {
			t = time.Now()
			if _, err := doc.MaterializeViews(patterns, viewjoin.SchemeLEp); err != nil {
				return err
			}
			remat = append(remat, ms(time.Since(t))/float64(len(patterns)))
		}
	}
	L["xmltree.apply_ms_p50"] = median(apply)
	L["maintain.view_ms_p50"] = median(maintain)
	L["maintain.rematerialize_ms_p50"] = median(remat)
	L["maintain.speedup_vs_remat"] = ratio(median(remat), median(maintain))
	return nil
}
