package viewjoin

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"viewjoin/internal/counters"
	"viewjoin/internal/engine"
	"viewjoin/internal/obs"
	"viewjoin/internal/store"
	"viewjoin/internal/tpq"
)

// This file is the executor: the one path every public entry point — Run,
// RunTraced, RunWith, Evaluate, EvaluateWithoutViews — takes through a
// prepared plan. A run is one job: resolve the options, run the engine
// once over the document (or the part of it after a cursor), and assemble
// the Result and its Stats.

// first is the engine-level output quota: the run may stop after limit
// matches (counted after the cursor filter), because the requested page is
// fully determined by that prefix. 0 (no limit) leaves the run unbounded.
// A limit past what int32 labels can number is no quota either: the
// sort-before-output engines size their shrink threshold from it, and
// slice cuts the page regardless.
func (o *RunOptions) first() int {
	if o.Limit <= 0 || o.Limit > math.MaxInt32 {
		return 0
	}
	return o.Limit
}

// slice reduces an engine's (already bounded, cursor-filtered) document-
// order output to the requested page.
func (o *RunOptions) slice(ms [][]Node) [][]Node {
	if o.Limit > 0 && len(ms) > o.Limit {
		ms = ms[:o.Limit]
	}
	return ms
}

// request is one execution: its options, its context (nil runs
// uninterruptible), and where its Stats count from.
type request struct {
	RunOptions
	ctx context.Context
	// start is where Duration and FirstMatchNanos count from; includePrep
	// folds the preparation-time counters into the Stats. A one-shot
	// Evaluate sets both so its Stats keep covering the whole call.
	start       time.Time
	includePrep bool
}

// resolve turns a call's arguments into a request.
func resolve(ctx context.Context, ro *RunOptions) request {
	r := request{ctx: ctx, start: time.Now()}
	if ro != nil {
		r.RunOptions = *ro
	}
	return r
}

// execute runs the plan once for r, as one job on the calling goroutine,
// and builds its Result. A plan over mapped views runs with faults turned
// into err: fault handling is per goroutine, and this guard covers every
// read of the run, the tracer's plan description included.
//
// A cursor (r.After) makes the run a restricted one that starts at the
// cursor. Let b be how far row r.After agrees with the plan's resume
// prefix: no match after it binds level b, or anything below it, before
// r.After[b] (resumePrefix), so the run's body is cut to start there and
// the engines seek every list to it (SeekStart, charging nothing). The
// engines' row filter (Options.After) still decides inside the body.
func (p *PreparedQuery) execute(r request) (res *Result, err error) {
	if p.mapped {
		defer catchViewFault(debug.SetPanicOnFault(true), &err)
	}
	interrupt, err := p.interruptFor(r.ctx)
	if err != nil {
		return nil, err
	}
	if n := len(p.q.p.Nodes); r.After != nil && len(r.After) != n {
		return nil, fmt.Errorf("viewjoin: cursor holds %d start labels, %s has %d nodes", len(r.After), p.q, n)
	}
	if r.Tracer != nil { // guarded: describing the plan allocates, an untraced run skips it
		r.Tracer.Plan(p.tracePlan())
	}
	acct, _ := jobIOs.Get().(*jobIO)
	if acct == nil {
		acct = new(jobIO)
	}
	defer jobIOs.Put(acct)
	var restrict *engine.Restriction
	if r.After != nil {
		b := 0
		for b < len(p.resume) && r.After[b] == p.resume[b] {
			b++
		}
		acct.resume = engine.Restriction{Spine: b, Body: engine.Span{Lo: r.After[b], Hi: math.MaxInt32}}
		restrict = &acct.resume
	}
	acct.c = counters.Counters{}
	io := &acct.io
	io.Reset(&acct.c)
	var rows [][]Node
	var peak int64
	r.Tracer.BeginPhase(obs.PhaseEvaluate)
	if restrict == nil || !restrict.Body.Empty() { // a cursor at the last label leaves nothing to run
		rows, peak, err = p.plan.Run(io, engine.Options{
			Tracer:    r.Tracer,
			DiskBased: r.DiskBased,
			Interrupt: interrupt,
			Restrict:  restrict,
			First:     r.first(),
			After:     r.After,
		})
	}
	r.Tracer.EndPhase(obs.PhaseEvaluate)
	if err != nil {
		return nil, err
	}
	c := acct.c
	if r.includePrep {
		c.Add(p.prepC)
	}
	var firstNanos int64
	if t := io.FirstMatchTime(); !t.IsZero() {
		firstNanos = t.Sub(r.start).Nanoseconds()
	}
	// Assembly is all the output phase still does: the rows, label-native
	// and in document order, were written during enumeration.
	r.Tracer.BeginPhase(obs.PhaseOutput)
	rows = r.slice(rows)
	r.Tracer.EndPhase(obs.PhaseOutput)
	res = &Result{
		Matches: rows,
		Stats: Stats{
			Counters:        c,
			PeakMemoryBytes: peak,
			Duration:        time.Since(r.start),
			FirstMatchNanos: firstNanos,
		},
	}
	if r.Tracer != nil { // an untraced run has no report: Trace stays nil
		res.Trace = r.Tracer.Report(c, time.Since(r.start))
		res.Trace.FirstMatchNanos = firstNanos
	}
	return res, nil
}

// resumePrefix walks the query's unary spine from the root while the node
// has exactly one child, laid out next in pre-order, and only reports that
// the plan's list for it holds a single candidate; it returns those
// candidates' start labels. Every match binds these levels to them, so a
// match after a cursor row that agrees with the prefix binds the level b
// below it at or after the row's b-th label, and every deeper node inside
// that binding: a cursor run starts there (execute). An empty prefix — the
// root list has several entries — leaves the root, which is always sound.
func resumePrefix(nodes []tpq.Node, only func(qi int) (start int32, ok bool)) []int32 {
	var prefix []int32
	for b := 0; len(nodes[b].Children) == 1 && nodes[b].Children[0] == b+1; b++ {
		start, ok := only(b)
		if !ok {
			break
		}
		prefix = append(prefix, start)
	}
	return prefix
}

// onlyEntry is resumePrefix's question asked of list files.
func onlyEntry(lists []*store.ListFile) func(int) (int32, bool) {
	return func(qi int) (int32, bool) {
		if lists[qi].Entries() != 1 {
			return 0, false
		}
		return lists[qi].LabelAt(0).Start, true
	}
}

// tracePlan returns the obs.Plan for tracer delivery, built on first use
// and shared by concurrent traced runs.
func (p *PreparedQuery) tracePlan() *obs.Plan {
	p.descOnce.Do(func() { p.desc = p.describe() })
	return p.desc
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
	interrupt := contextInterrupt(ctx, p.eng, p.q)
	return interrupt, interrupt()
}

// ViewFaultError reports that reading a memory-mapped view (LoadViewMmap)
// faulted: its file was truncated or became unreadable under the live
// mapping. The run or Prepare that hit it is lost; the process, and every
// plan over other views, is not.
type ViewFaultError struct {
	Addr uintptr // the faulting address
}

func (e *ViewFaultError) Error() string {
	return fmt.Sprintf("viewjoin: fault reading a mapped view at %#x: its file was truncated or is unreadable", e.Addr)
}

// catchViewFault is deferred around every read a plan over mapped views
// does, as `defer catchViewFault(debug.SetPanicOnFault(true), &err)`: it
// restores the goroutine's setting and recovers exactly the fault panic (a
// runtime.Error carrying the address) into *err; anything else re-panics.
func catchViewFault(restore bool, err *error) {
	debug.SetPanicOnFault(restore)
	switch r := recover().(type) {
	case nil:
	case interface {
		runtime.Error
		Addr() uintptr
	}:
		*err = &ViewFaultError{Addr: r.Addr()}
	default:
		panic(r)
	}
}

// jobIO is one run's cost accounting: its counters and the IO charging
// them, and the restriction of a run that resumes after a cursor. Every
// plan's runs recycle them through jobIOs, so a run resets them instead of
// allocating them.
type jobIO struct {
	io     counters.IO
	c      counters.Counters
	resume engine.Restriction
}

// jobIOs is the executor's pool of jobIO, shared by every plan.
var jobIOs sync.Pool // *jobIO
