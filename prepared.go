package viewjoin

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"viewjoin/internal/counters"
	"viewjoin/internal/engine"
	"viewjoin/internal/engine/interjoin"
	"viewjoin/internal/engine/pathstack"
	"viewjoin/internal/engine/twigstack"
	vjengine "viewjoin/internal/engine/viewjoin"
	"viewjoin/internal/obs"
	"viewjoin/internal/store"
	"viewjoin/internal/tpq"
	"viewjoin/internal/vsq"
)

// PreparedQuery is a query compiled once against a document, a view set
// and an engine, ready to be executed any number of times. Preparation
// performs every per-plan step of Evaluate — view-set validation,
// view-segmented query construction, list binding, inverse-position maps
// and (for InterJoin) materializing the view streams — so Run pays only
// the per-execution costs the paper's §V cost model charges: cursor
// movement over the view lists, structural joins, and enumeration.
//
// Run draws evaluator scratch state (cursors, region logs, window buffers,
// join scratch) from an internal sync.Pool and resets it in place instead
// of reallocating, so a warm Run allocates only for its output: row chunks
// that double up to 64 KiB and one header slice, never one allocation per
// match (see Result.Matches).
//
// A PreparedQuery is immutable after Prepare and safe for concurrent Run
// calls provided the captured EvalOptions.Tracer is nil (tracers are not
// required to be concurrency-safe); documents and materialized views are
// already immutable after construction. RunTraced attaches a tracer to a
// single execution instead, so concurrent traced runs of one shared plan
// are safe as long as each call brings its own tracer.
type PreparedQuery struct {
	// epoch is the document epoch of the snapshot the plan was compiled
	// against. Runs read only the views' stores bound at that epoch, so a
	// plan stays self-consistent across concurrent updates — it just
	// answers at its own epoch.
	epoch uint64
	q     *Query
	eng   Engine
	opts  EvalOptions

	// plan is the obs.Plan delivered to tracers. Prepare builds it eagerly
	// when it was given a tracer; otherwise planOnce builds it on the first
	// traced run (RunTraced on a plan prepared untraced, e.g. out of a
	// serving cache), keeping the untraced hot path allocation-free.
	plan     *obs.Plan
	planOnce sync.Once

	// Plan inputs retained for the lazy obs.Plan build and for footprint
	// accounting; all are immutable after Prepare.
	patterns []*tpq.Pattern
	stores   []*store.ViewStore
	v        *vsq.VSQ // VJ/TS/PS only
	viewPos  [][]int  // IJ only

	// prepC holds the costs charged during preparation (InterJoin's view
	// stream scans); the one-shot Evaluate folds them into its Stats to
	// keep historical counter totals, while Run reports per-execution
	// costs only — that amortization is the point of preparing.
	prepC counters.Counters

	vj *vjengine.Prepared
	ts *twigstack.Prepared
	ps *pathstack.Prepared
	ij *interjoin.Prepared

	ioPool sync.Pool // *jobIO

	// Partition-planning cache: the job list for a given parallelism and
	// the spine-order property depend only on the immutable plan, so they
	// are computed once and shared across runs — a serving plan pays the
	// anchor-span merge on its first parallel request, not on every one.
	partMu    sync.Mutex
	partPlans map[int][]engine.Restriction
	spineOrd  int8 // 0 unknown, 1 ordered, -1 not
}

// Prepare compiles q over the materialized views for the chosen engine.
// The views must form a valid minimal covering set of q, exactly as for
// Evaluate; opts (nil for defaults) is captured and applied to every Run.
//
// Prepare captures the document's current snapshot and requires every view
// to reflect exactly that snapshot: a view left behind by an Apply the
// caller did not Maintain it through fails with *EpochMismatchError
// (retryable after maintaining or re-materializing the view).
func Prepare(d *Document, q *Query, mviews []*MaterializedView, eng Engine, opts *EvalOptions) (*PreparedQuery, error) {
	if opts == nil {
		opts = &EvalOptions{}
	}
	snap := d.snap()
	patterns := make([]*tpq.Pattern, len(mviews))
	stores := make([]*store.ViewStore, len(mviews))
	for i, mv := range mviews {
		if mv.doc != d {
			return nil, fmt.Errorf("viewjoin: view %s materialized over a different document", mv.pattern)
		}
		st := mv.st()
		if st.tree != snap.tree {
			return nil, &EpochMismatchError{ViewEpoch: st.epoch, DocEpoch: snap.epoch, View: mv.pattern.String()}
		}
		patterns[i] = mv.pattern
		stores[i] = st.store
	}
	p := &PreparedQuery{epoch: snap.epoch, q: q, eng: eng, opts: *opts, patterns: patterns, stores: stores}
	tr := opts.Tracer
	switch eng {
	case EngineViewJoin:
		v, err := buildVSQ(q, patterns, tr)
		if err != nil {
			return nil, err
		}
		p.v = v
		p.vj, err = vjengine.Prepare(v, stores, tr)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			p.plan = tracePlan(q.p, patterns, stores, eng, v)
		}
	case EngineTwigStack, EnginePathStack:
		v, err := buildVSQ(q, patterns, tr)
		if err != nil {
			return nil, err
		}
		p.v = v
		lists, err := bindLists(v, stores, tr)
		if err != nil {
			return nil, err
		}
		if eng == EngineTwigStack {
			p.ts = twigstack.Prepare(q.p, lists)
		} else if p.ps, err = pathstack.Prepare(q.p, lists); err != nil {
			return nil, err
		}
		if tr != nil {
			p.plan = tracePlan(q.p, patterns, stores, eng, v)
		}
	case EngineInterJoin:
		if tr != nil {
			tr.BeginPhase(obs.PhaseSegment)
		}
		viewPos := make([][]int, len(patterns))
		for i, pat := range patterns {
			m, err := tpq.QueryNodeOfView(pat, q.p)
			if err != nil {
				if tr != nil {
					tr.EndPhase(obs.PhaseSegment)
				}
				return nil, err
			}
			viewPos[i] = m
		}
		if tr != nil {
			tr.EndPhase(obs.PhaseSegment)
		}
		io := counters.NewIO(&p.prepC, opts.BufferPoolPages)
		if tr != nil {
			io.Page = pageHook(tr)
		}
		ij, err := interjoin.Prepare(q.p, stores, viewPos, io, tr)
		if err != nil {
			return nil, err
		}
		p.ij = ij
		p.viewPos = viewPos
		if tr != nil {
			p.plan = interJoinPlan(q.p, patterns, stores, viewPos)
		}
	default:
		return nil, fmt.Errorf("viewjoin: unknown engine %v", eng)
	}
	return p, nil
}

// Query returns the prepared query.
func (p *PreparedQuery) Query() *Query { return p.q }

// Engine returns the engine the plan was compiled for.
func (p *PreparedQuery) Engine() Engine { return p.eng }

// Epoch returns the document epoch the plan was compiled at. Runs answer
// at this epoch regardless of later updates; a serving layer compares it
// against Document.Epoch to decide whether the plan is current.
func (p *PreparedQuery) Epoch() uint64 { return p.epoch }

// FootprintBytes estimates the bytes a cached PreparedQuery keeps resident
// beyond the shared document and materialized views: the engine's prepared
// state (for InterJoin, the materialized view streams — the dominant term)
// plus the retained plan inputs. It is an arithmetic estimate for cache
// accounting, not a precise heap measurement.
func (p *PreparedQuery) FootprintBytes() int64 {
	var f int64
	switch p.eng {
	case EngineViewJoin:
		f = p.vj.Footprint()
	case EngineTwigStack:
		f = p.ts.Footprint()
	case EnginePathStack:
		f = p.ps.Footprint()
	case EngineInterJoin:
		f = p.ij.Footprint()
		for _, m := range p.viewPos {
			f += 24 + int64(len(m))*8
		}
	}
	// Retained plan-input references and the PreparedQuery shell itself.
	f += int64(len(p.patterns)+len(p.stores))*8 + 256
	return f
}

// limits is the resolved pagination state of one execution: the public
// Limit/Offset/After knobs normalized for the engine layer.
type limits struct {
	limit  int
	offset int
	after  []int32
}

// first is the engine-level output quota: the run may stop after
// offset+limit matches (counted after the cursor filter), because the
// requested page is fully determined by that prefix. 0 (no limit) leaves
// the run unbounded — an offset alone must still enumerate everything
// after the skipped prefix.
func (l limits) first() int {
	if l.limit <= 0 {
		return 0
	}
	return l.offset + l.limit
}

// slice reduces an engine's (already bounded, cursor-filtered) document-
// order output to the requested page.
func (l limits) slice(ms [][]Node) [][]Node {
	if l.offset > 0 {
		if l.offset >= len(ms) {
			ms = ms[:0]
		} else {
			ms = ms[l.offset:]
		}
	}
	if l.limit > 0 && len(ms) > l.limit {
		ms = ms[:l.limit]
	}
	return ms
}

// limits resolves the prepare-time Limit/Offset options.
func (p *PreparedQuery) limits() limits {
	return limits{limit: p.opts.Limit, offset: p.opts.Offset}
}

// Run executes the prepared plan once and returns a fresh Result. Stats
// cover this execution only — preparation costs (for InterJoin, the view
// stream scans) were paid at Prepare time and are not re-charged; see
// Evaluate for the historical one-shot accounting. A context captured in
// the prepare-time EvalOptions bounds the run; RunContext supplies a
// per-request context instead.
func (p *PreparedQuery) Run() (*Result, error) {
	return p.run(p.opts.Context, p.limits(), nil, time.Now(), false, p.opts.Tracer)
}

// RunContext is Run bounded by ctx: cancellation or deadline expiry aborts
// the engine at its next cooperative checkpoint and returns a
// *CanceledError (no partial results, and the pooled evaluator scratch is
// recycled normally). ctx overrides any context captured at Prepare time;
// a nil ctx runs uninterruptible. This is the serving entry point: one
// immutable PreparedQuery, many concurrent requests, each with its own
// deadline.
func (p *PreparedQuery) RunContext(ctx context.Context) (*Result, error) {
	return p.run(ctx, p.limits(), nil, time.Now(), false, p.opts.Tracer)
}

// StreamOptions selects a page of the result for RunPage and RunStream,
// overriding any prepare-time Limit/Offset for that one execution.
type StreamOptions struct {
	// Limit bounds the page to Limit matches; 0 means unbounded.
	Limit int
	// Offset skips the first Offset matches in document order (after the
	// After cursor filter, when both are set).
	Offset int
	// After, when non-nil, resumes strictly after a previous match: one
	// start label per query node (Node.Start of the previous page's last
	// row, in binding order), compared lexicographically — i.e. document
	// order. Unlike an offset, a cursor lets the streaming engines seek:
	// whole enumeration windows ending before the cursor are skipped
	// without being re-enumerated.
	After []int32
	// Parallelism requests a range-partitioned parallel run, as
	// EvalOptions.Parallelism; 0 inherits the prepare-time setting.
	Parallelism int
}

// streamLimits resolves per-call stream options against the prepare-time
// defaults.
func (p *PreparedQuery) streamLimits(so *StreamOptions) (limits, int) {
	if so == nil {
		return p.limits(), p.parallelism()
	}
	lim := limits{limit: so.Limit, offset: so.Offset, after: so.After}
	k := so.Parallelism
	if k == 0 {
		k = p.opts.Parallelism
	}
	if k < 0 {
		k = runtime.GOMAXPROCS(0)
	}
	return lim, k
}

// RunPage executes the prepared plan once and returns the page of the
// result selected by so: the first so.Limit matches in document order
// after skipping so.Offset of them, resuming strictly after the so.After
// cursor when set. The page bound is pushed into the engines (see
// EvalOptions.Limit), so peak result memory is O(Limit + open enumeration
// windows) rather than O(total matches), and the streaming engines stop
// scanning as soon as the page is determined. ctx bounds the run as in
// RunContext. Safe for concurrent use under the same conditions as Run.
func (p *PreparedQuery) RunPage(ctx context.Context, so *StreamOptions) (*Result, error) {
	return p.RunPageTraced(ctx, so, p.opts.Tracer)
}

// RunPageTraced is RunPage with tr observing this single execution,
// overriding any prepare-time Tracer — the paged analogue of RunTraced,
// and like it safe for concurrent calls on one shared plan as long as
// every call brings its own tracer. A nil tr runs untraced.
func (p *PreparedQuery) RunPageTraced(ctx context.Context, so *StreamOptions, tr obs.Tracer) (*Result, error) {
	lim, k := p.streamLimits(so)
	return p.runParallel(ctx, k, lim, time.Now(), false, tr)
}

// RunStream executes the prepared plan once, delivering each match of the
// selected page to yield as it is produced instead of materializing the
// result. The row slice is reused between calls — yield must copy any
// bindings it keeps. Returning false from yield stops the run early (the
// engines unwind at their next checkpoint and the call still returns a
// nil error). The returned Result carries Stats only; Matches is empty.
//
// The streaming engines (ViewJoin, TwigStack) deliver incrementally in
// document order, so the first row arrives while the scan is still in
// flight (see Stats.FirstMatchNanos) — sequentially, and also under a
// partitioned bounded run when cross-job order follows job index
// (spineOrdered): partition workers then stream into a document-order
// merge that yields job 0's rows while later partitions are still
// scanning. The sort-before-output engines (PathStack, InterJoin) and
// the remaining partitioned shapes cannot deliver before ordering is
// established; they evaluate the bounded page first and then replay it
// through yield.
func (p *PreparedQuery) RunStream(ctx context.Context, so *StreamOptions, yield func(row []Node) bool) (*Result, error) {
	lim, k := p.streamLimits(so)
	streamEng := p.eng == EngineViewJoin || p.eng == EngineTwigStack
	if k > 1 && streamEng && lim.first() > 0 {
		start := time.Now() // planning is part of the run, as in runParallel
		if jobs := p.planPartitions(k); len(jobs) > 1 && p.spineOrdered() {
			return p.runParallelStream(ctx, jobs, lim, start, yield)
		}
		// Unpartitionable or unordered across jobs: the parallel
		// materialize-and-replay path below still applies the page bound.
	}
	if k > 1 || !streamEng {
		res, err := p.runParallel(ctx, k, lim, time.Now(), false, p.opts.Tracer)
		if err != nil {
			return nil, err
		}
		for _, row := range res.Matches {
			if !yield(row) {
				break
			}
		}
		res.Matches = nil
		return res, nil
	}
	// True streaming: the collector hands each row to emit in document
	// order; skip the offset prefix here (it still counts against the
	// engine quota, which is offset+limit) and stop the run when yield
	// declines.
	skip := lim.offset
	emit := func(row []Node) bool {
		if skip > 0 {
			skip--
			return true
		}
		return yield(row)
	}
	return p.run(ctx, lim, emit, time.Now(), false, p.opts.Tracer)
}

// RunTraced executes the prepared plan once with tr observing this single
// execution, overriding any prepare-time Tracer. k > 1 requests a
// range-partitioned parallel run across up to k workers (as RunParallel);
// k <= 1 keeps the sequential path. Because the tracer travels with the
// call rather than the plan, concurrent RunTraced calls on one shared
// PreparedQuery are safe provided every call supplies its own tracer —
// this is how a serving layer records full traces of requests running
// cached (untraced) plans. A nil tr runs untraced, identically to
// RunContext/RunParallel.
func (p *PreparedQuery) RunTraced(ctx context.Context, k int, tr obs.Tracer) (*Result, error) {
	return p.runParallel(ctx, k, p.limits(), time.Now(), false, tr)
}

// pageHook adapts buffer-pool lookups into tracer page events.
func pageHook(tr obs.Tracer) func(file uintptr, page int32, miss bool) {
	return func(_ uintptr, _ int32, miss bool) {
		if miss {
			tr.Event(obs.EvPageMiss, -1, 1)
		} else {
			tr.Event(obs.EvPageHit, -1, 1)
		}
	}
}

// lazyPlan returns the obs.Plan for tracer delivery, building it on first
// use when Prepare ran untraced. The build is pure (it only walks the
// retained patterns, stores and segmentation), so sync.Once makes the
// result safe to share across concurrent traced runs.
func (p *PreparedQuery) lazyPlan() *obs.Plan {
	p.planOnce.Do(func() {
		if p.plan != nil {
			return // built eagerly by a traced Prepare
		}
		if p.eng == EngineInterJoin {
			p.plan = interJoinPlan(p.q.p, p.patterns, p.stores, p.viewPos)
		} else {
			p.plan = tracePlan(p.q.p, p.patterns, p.stores, p.eng, p.v)
		}
	})
	return p.plan
}

// interruptFor builds the cooperative interrupt hook the engines poll for
// ctx (nil runs uninterruptible); the hook wraps the context error in a
// *CanceledError so callers see which query and engine were aborted. It is
// polled once here so an already-expired deadline aborts before any engine
// work, independent of the engines' check strides.
func (p *PreparedQuery) interruptFor(ctx context.Context) (func() error, error) {
	if ctx == nil {
		return nil, nil
	}
	interrupt := contextInterrupt(ctx, p.eng, p.q.String())
	return interrupt, interrupt()
}

// run executes the prepared plan sequentially — one job over the whole
// document — timing from start (which a one-shot Evaluate sets before
// preparation so Duration keeps covering the whole call). includePrep folds
// preparation-time counters into the Stats. tr observes this execution only
// — the Run/RunContext entry points pass the prepare-time Tracer, RunTraced
// a per-call one.
func (p *PreparedQuery) run(ctx context.Context, lim limits, emit func(row []Node) bool,
	start time.Time, includePrep bool, tr obs.Tracer) (*Result, error) {
	interrupt, err := p.interruptFor(ctx)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		if pl := p.lazyPlan(); pl != nil {
			tr.Plan(pl)
		}
		tr.BeginPhase(obs.PhaseEvaluate)
	}
	out := p.runJob(nil, interrupt, lim, emit, tr)
	if tr != nil {
		tr.EndPhase(obs.PhaseEvaluate)
	}
	return p.buildResult([]jobOut{out}, lim, includePrep, start, tr)
}

// buildResult assembles the public Result of a run from its jobs' outcomes
// (one for a sequential run): counters summed, PeakMemoryBytes the largest
// single job's peak, first match the earliest, and Matches the jobs' rows —
// already label-native and in document order — merged and cut to the page.
// That assembly is all the output phase still does: the rows themselves
// were written during enumeration.
func (p *PreparedQuery) buildResult(outs []jobOut, lim limits, includePrep bool, start time.Time, tr obs.Tracer) (*Result, error) {
	var (
		c          counters.Counters
		peak       int64
		executed   int
		firstNanos int64
		firstMatch time.Time
	)
	if includePrep {
		c.Add(p.prepC)
	}
	for i := range outs {
		if outs[i].err != nil {
			return nil, outs[i].err
		}
		if outs[i].skipped {
			continue
		}
		executed++
		c.Add(outs[i].c)
		peak = max(peak, outs[i].peak)
		if t := outs[i].first; !t.IsZero() && (firstMatch.IsZero() || t.Before(firstMatch)) {
			firstMatch = t
		}
	}
	if !firstMatch.IsZero() {
		firstNanos = firstMatch.Sub(start).Nanoseconds()
	}
	if tr != nil {
		tr.BeginPhase(obs.PhaseOutput)
	}
	rows := lim.slice(mergeJobRows(outs))
	if tr != nil {
		tr.EndPhase(obs.PhaseOutput)
	}
	res := &Result{
		Matches: rows,
		Stats: Stats{
			ElementsScanned: c.ElementsScanned,
			Comparisons:     c.Comparisons,
			PointerDerefs:   c.PointerDerefs,
			PagesRead:       c.PagesRead,
			PagesWritten:    c.PagesWritten,
			PageHits:        c.PageHits,
			JumpsTaken:      c.JumpsTaken,
			JumpsRefused:    c.JumpsRefused,
			PeakMemoryBytes: peak,
			Duration:        time.Since(start),
			FirstMatchNanos: firstNanos,
			Partitions:      executed,
		},
	}
	if rec, ok := tr.(*obs.Recorder); ok {
		res.Trace = rec.Report(c, time.Since(start))
		res.Trace.FirstMatchNanos = firstNanos
	}
	return res, nil
}

// BatchResult is the outcome of one query in an EvaluateBatch call.
type BatchResult struct {
	Result *Result
	Err    error
}

// EvaluateBatch executes prepared queries across a bounded worker pool and
// returns the per-query outcomes in input order. parallel bounds the
// number of concurrent executions; <= 0 uses GOMAXPROCS. The same
// PreparedQuery may appear (or be run) multiple times — concurrent Run
// calls are safe as long as every query was prepared with a nil Tracer.
func EvaluateBatch(queries []*PreparedQuery, parallel int) []BatchResult {
	out := make([]BatchResult, len(queries))
	if len(queries) == 0 {
		return out
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(queries) {
		parallel = len(queries)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				r, err := queries[i].Run()
				out[i] = BatchResult{Result: r, Err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// parallelFor runs work(0..n-1) across a worker pool bounded by GOMAXPROCS
// (sequentially for n <= 1). Workers pull indices from a shared counter,
// so output determinism is the caller's: write only to slot i.
func parallelFor(n int, work func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			work(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				work(i)
			}
		}()
	}
	wg.Wait()
}

// buildVSQ wraps vsq.Build in the segment phase span.
func buildVSQ(q *Query, patterns []*tpq.Pattern, tr obs.Tracer) (*vsq.VSQ, error) {
	if tr != nil {
		tr.BeginPhase(obs.PhaseSegment)
		defer tr.EndPhase(obs.PhaseSegment)
	}
	return vsq.Build(q.p, patterns)
}

// bindLists wraps engine.BindLists in the bind phase span (for the engines
// that bind here rather than inside their Prepare).
func bindLists(v *vsq.VSQ, stores []*store.ViewStore, tr obs.Tracer) ([]*store.ListFile, error) {
	if tr != nil {
		tr.BeginPhase(obs.PhaseBind)
		defer tr.EndPhase(obs.PhaseBind)
	}
	return engine.BindLists(v, stores)
}
