package viewjoin

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

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
// The plan holds only immutable data. Run draws evaluator scratch state
// (cursors, region logs, window buffers, join scratch) from its engine's
// package-level sync.Pool, binds it to the plan and resets it in place
// instead of reallocating, so a warm Run allocates only for its output:
// row chunks that double up to 64 KiB and one header slice, never one
// allocation per match (see Result.Matches). Scratch is kept per
// concurrent run, not per plan, and a collection releases it.
//
// A PreparedQuery is immutable after Prepare and safe for concurrent runs:
// it holds no per-run state, and every option that shapes a run — page,
// parallelism, tracer, output approach — travels with the call in
// RunOptions. Documents and materialized views are already immutable after
// construction.
type PreparedQuery struct {
	// epoch is the document epoch of the snapshot the plan was compiled
	// against. Runs read only the views' stores bound at that epoch, so a
	// plan stays self-consistent across concurrent updates — it just
	// answers at its own epoch.
	epoch uint64
	q     *Query
	eng   Engine

	// plan is the engine's compiled form of the query; the executor knows
	// the four engines only through it.
	plan   enginePlan
	nviews int  // views the plan reads, for footprint accounting
	mapped bool // some view is a LoadViewMmap view: reads are guarded (catchViewFault)

	// describe builds the obs.Plan delivered to tracers. It is pure (it only
	// walks the plan inputs it closes over, all immutable after Prepare), so
	// the first traced run builds desc under descOnce and concurrent traced
	// runs share it; the untraced hot path never pays for it.
	describe func() *obs.Plan
	desc     *obs.Plan
	descOnce sync.Once

	// prepC holds the costs charged during preparation (InterJoin's view
	// stream scans); the one-shot Evaluate folds them into its Stats to
	// keep historical counter totals, while Run reports per-execution
	// costs only — that amortization is the point of preparing.
	prepC counters.Counters

	// resume is the plan's resume prefix (resumePrefix), fixed at Prepare
	// from the lists' entry counts: a cursor run seeks below it.
	resume []int32

	// Partition-planning cache: the job list for a given parallelism depends
	// only on the immutable plan, so it is computed once and shared across
	// runs — a serving plan pays the anchor-span merge on its first parallel
	// request, not on every one.
	partMu    sync.Mutex
	partPlans map[int][]engine.Restriction
}

// enginePlan is what the executor needs from an engine's prepared plan: to
// run it once over the whole document or one partition of it (rows in
// document order, the peak bytes of intermediate state held, 0 when the
// engine does not track it), its resident size for cache accounting, and
// the partition planner's two inputs — the document regions of a query
// node's candidates, to place cuts that no match can straddle, and an
// estimated weight of a start range, to balance chunks.
type enginePlan interface {
	Run(io *counters.IO, opts engine.Options) (rows [][]Node, peakBytes int64, err error)
	Footprint() int64
	AnchorSpans(qi int) []engine.Span
	WeightIn(lo, hi int32) int64
}

// Prepare compiles q over the materialized views for the chosen engine.
// The views must form a valid minimal covering set of q, exactly as for
// Evaluate. tr (nil for none) observes preparation only — the segment and
// bind phases — and is not kept: a run brings its own in RunOptions.
//
// Prepare captures the document's current snapshot and requires every view
// to reflect exactly that snapshot: a view left behind by an Apply the
// caller did not Maintain it through fails with *EpochMismatchError
// (retryable after maintaining or re-materializing the view).
func Prepare(d *Document, q *Query, mviews []*MaterializedView, eng Engine, tr *obs.Recorder) (_ *PreparedQuery, err error) {
	snap := d.snap()
	patterns := make([]*tpq.Pattern, len(mviews))
	stores := make([]*store.ViewStore, len(mviews))
	mapped := false
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
		mapped = mapped || mv.file != nil
	}
	if mapped { // binding lists and InterJoin's stream scans read view pages
		defer catchViewFault(debug.SetPanicOnFault(true), &err)
	}
	p := &PreparedQuery{epoch: snap.epoch, q: q, eng: eng, nviews: len(mviews), mapped: mapped}
	switch eng {
	case EngineViewJoin, EngineTwigStack, EnginePathStack:
		v, err := buildVSQ(q, patterns, tr)
		if err != nil {
			return nil, err
		}
		var lists engine.Lists
		if p.plan, lists, err = listPlan(eng, v, stores, tr); err != nil {
			return nil, err
		}
		p.resume = resumePrefix(q.p.Nodes, onlyEntry(lists))
		p.describe = func() *obs.Plan { return tracePlan(q.p, patterns, stores, eng, v) }
	case EngineInterJoin:
		tr.BeginPhase(obs.PhaseSegment)
		viewPos := make([][]int, len(patterns))
		for i, pat := range patterns {
			m, err := tpq.QueryNodeOfView(pat, q.p)
			if err != nil {
				tr.EndPhase(obs.PhaseSegment)
				return nil, err
			}
			viewPos[i] = m
		}
		tr.EndPhase(obs.PhaseSegment)
		ij, err := interjoin.Prepare(q.p, stores, viewPos, &counters.IO{C: &p.prepC})
		if err != nil {
			return nil, err
		}
		p.plan = ij
		p.resume = resumePrefix(q.p.Nodes, func(qi int) (int32, bool) { // a stream repeats a candidate once per tuple
			spans := ij.AnchorSpans(qi)
			if len(spans) == 0 || slices.ContainsFunc(spans, func(s engine.Span) bool { return s != spans[0] }) {
				return 0, false
			}
			return spans[0].Lo, true
		})
		p.describe = func() *obs.Plan { return interJoinPlan(q.p, patterns, stores, viewPos) }
	default:
		return nil, fmt.Errorf("viewjoin: unknown engine %v", eng)
	}
	return p, nil
}

// listPlan prepares one of the three engines that read the views' element
// lists through the view-segmented query, and returns the lists it bound.
func listPlan(eng Engine, v *vsq.VSQ, stores []*store.ViewStore, tr *obs.Recorder) (enginePlan, engine.Lists, error) {
	if eng == EngineViewJoin {
		vj, err := vjengine.Prepare(v, stores, tr)
		if err != nil {
			return nil, nil, err
		}
		return vj, vj.Lists, nil
	}
	lists, err := bindLists(v, stores, tr)
	if err != nil {
		return nil, nil, err
	}
	if eng == EngineTwigStack {
		return twigstack.Prepare(v.Query, lists), lists, nil
	}
	ps, err := pathstack.Prepare(v.Query, lists)
	return ps, lists, err
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
	// The engine plan, one pattern and one store reference per view for the
	// plan description, and the PreparedQuery shell itself.
	return p.plan.Footprint() + int64(p.nviews)*16 + 256
}

// RunOptions shapes one execution of a prepared plan, and is the only
// record that does: a plan captures none of it, so one plan serves
// concurrent runs with different options. A nil *RunOptions is the zero
// value — every match, sequential, untraced, memory-based. The context is
// the call's own argument.
type RunOptions struct {
	// Limit, when > 0, bounds the result to the first Limit matches in
	// document order. The bound is pushed into the engines: the streaming
	// engines (ViewJoin, TwigStack) stop scanning once Limit matches have
	// been enumerated, and the sort-before-output engines (PathStack,
	// InterJoin) cap their accumulation at Limit entries, so peak result
	// memory is O(Limit) instead of O(total matches). 0 returns
	// everything. To skip a prefix, as SQL OFFSET does, run with the
	// prefix added to the limit and drop it from the rows; After pages
	// without enumerating the prefix at all.
	Limit int
	// After, when non-nil, resumes strictly after a previous match: one
	// start label per query node (Node.Start of the previous page's last
	// row, in binding order), compared lexicographically — i.e. document
	// order. A cursor is a position the run seeks to: it executes as a
	// partition that starts at the cursor, so every list is opened there
	// by binary search and page k costs what page 1 costs.
	// A cursor of any other length is an error.
	After []int32
	// Parallelism requests a range-partitioned run: the document is split
	// into up to Parallelism chunks at top-level subtree boundaries and
	// evaluated by a bounded worker group. 0 and 1 are sequential; negative
	// means GOMAXPROCS. The Result is byte-identical to the sequential one
	// (see Stats for how partitions fold into it); a plan that admits no
	// cut runs as one job.
	Parallelism int
	// Tracer, when non-nil, observes this execution — the plan, phase
	// spans and partition wall times — and fills Result.Trace, whose
	// counters are the run's Stats. A Recorder is not safe for concurrent
	// use, so concurrent runs each bring their own. nil runs untraced at
	// zero cost.
	Tracer *obs.Recorder
	// DiskBased selects the disk-based output approach (§IV): every window
	// flush is charged as spooled through scratch pages, ceil(16·entries /
	// 4096) pages written and as many read back. It is a cost-model
	// setting only: the window stays in memory, and PeakMemoryBytes is the
	// same as a memory-based run's.
	DiskBased bool
}

// Run executes the prepared plan once with no options — every match,
// sequential, untraced — and returns a fresh Result. Stats cover this
// execution only: preparation costs (for InterJoin, the view stream scans)
// were paid at Prepare time and are not re-charged; see Evaluate for the
// historical one-shot accounting.
//
// Pinned: the signature is part of what benchmark/ calls and must not
// change outside a [benchmark] PR.
//
// Deprecated: use RunWith(nil, nil), which Run calls.
func (p *PreparedQuery) Run() (*Result, error) { return p.RunWith(nil, nil) }

// RunTraced executes the prepared plan once with tr observing it (nil runs
// untraced) over up to k partitions, as RunOptions.Parallelism.
//
// Pinned: benchmark/ calls it as RunTraced(ctx, 1, obs.NewRecorder()), and
// that call shape must keep compiling outside a [benchmark] PR.
//
// Deprecated: use RunWith(ctx, &RunOptions{Parallelism: k, Tracer: tr}).
func (p *PreparedQuery) RunTraced(ctx context.Context, k int, tr *obs.Recorder) (*Result, error) {
	return p.RunWith(ctx, &RunOptions{Parallelism: k, Tracer: tr})
}

// RunWith executes the prepared plan once bounded by ctx and shaped by ro
// (nil for none). Cancellation or deadline expiry aborts the engine at its
// next cooperative checkpoint and returns a *CanceledError — no partial
// results, and the pooled evaluator scratch is recycled normally; a nil
// ctx runs uninterruptible. This is the serving entry point: one immutable
// PreparedQuery, many concurrent requests, each with its own deadline,
// page, parallelism and tracer.
func (p *PreparedQuery) RunWith(ctx context.Context, ro *RunOptions) (*Result, error) {
	return p.execute(resolve(ctx, ro))
}

// parallelFor runs work(0..n-1) across at most workers goroutines (<= 0
// means GOMAXPROCS), inline when one suffices. Workers pull indices from a
// shared counter, so output determinism is the caller's: write only to
// slot i.
func parallelFor(n, workers int, work func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
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
func buildVSQ(q *Query, patterns []*tpq.Pattern, tr *obs.Recorder) (*vsq.VSQ, error) {
	tr.BeginPhase(obs.PhaseSegment)
	defer tr.EndPhase(obs.PhaseSegment)
	return vsq.Build(q.p, patterns)
}

// bindLists wraps engine.BindLists in the bind phase span (for the engines
// that bind here rather than inside their Prepare).
func bindLists(v *vsq.VSQ, stores []*store.ViewStore, tr *obs.Recorder) ([]*store.ListFile, error) {
	tr.BeginPhase(obs.PhaseBind)
	defer tr.EndPhase(obs.PhaseBind)
	return engine.BindLists(v, stores)
}
