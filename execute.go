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
)

// This file is the executor: the one path every public entry point — Run,
// RunTraced, RunWith, Evaluate, EvaluateWithoutViews — takes through a
// prepared plan. A run is four steps: resolve the options, plan the
// partitions (none: one whole-document job, run inline), run every job
// through runJob, and assemble the Result and its Stats once.

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

// resolve turns a call's arguments into a request; its one rule is that a
// negative Parallelism means GOMAXPROCS.
func resolve(ctx context.Context, ro *RunOptions) request {
	r := request{ctx: ctx, start: time.Now()}
	if ro != nil {
		r.RunOptions = *ro
	}
	if r.Parallelism < 0 {
		r.Parallelism = runtime.GOMAXPROCS(0)
	}
	return r
}

// execute runs the plan once for r: every job's rows accumulate in its
// outcome and assemble merges them into the Result.
//
// Partitions run untraced (a Recorder is not safe for concurrent use);
// the executor instead emits one EvPartition event per executed job
// carrying its wall time, so traced runs still expose the partition-span
// distribution.
func (p *PreparedQuery) execute(r request) (res *Result, err error) {
	if p.mapped { // partition planning reads the lists too
		defer catchViewFault(debug.SetPanicOnFault(true), &err)
	}
	interrupt, err := p.interruptFor(r.ctx)
	if err != nil {
		return nil, err
	}
	if n := len(p.q.p.Nodes); r.After != nil && len(r.After) != n {
		return nil, fmt.Errorf("viewjoin: cursor holds %d start labels, %s has %d nodes", len(r.After), p.q, n)
	}
	jobs := p.planPartitions(r.Parallelism)
	if r.Tracer != nil { // guarded: describing the plan allocates, an untraced run skips it
		r.Tracer.Plan(p.tracePlan())
	}
	r.Tracer.BeginPhase(obs.PhaseEvaluate)
	var one [1]jobOut
	outs := one[:]
	if len(jobs) == 0 {
		one[0] = p.runJob(nil, interrupt, &r.RunOptions)
	} else {
		outs = p.runPartitions(jobs, interrupt, r.RunOptions)
		for i := range outs {
			if !outs[i].skipped {
				r.Tracer.Event(obs.EvPartition, -1, int64(outs[i].dur))
			}
		}
	}
	r.Tracer.EndPhase(obs.PhaseEvaluate)
	return p.assemble(outs, &r)
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

// jobOut is one job's outcome — a partition's, or a sequential run's single
// whole-document job — written only by its worker.
type jobOut struct {
	rows    [][]Node
	c       counters.Counters
	peak    int64
	dur     time.Duration
	first   time.Time
	skipped bool
	err     error
}

// jobIO is one job's cost accounting: its counters and the IO charging
// them, and the restriction of a job that resumes after a cursor. Every
// plan's jobs recycle them through jobIOs, so a run resets them instead of
// allocating them.
type jobIO struct {
	io     counters.IO
	c      counters.Counters
	resume engine.Restriction
}

// jobIOs is the executor's pool of jobIO, shared by every plan.
var jobIOs sync.Pool // *jobIO

// runJob executes the plan once over restriction r (nil: the whole
// document) shaped by o, with its own counters, so concurrent jobs share no
// accounting state. o.Tracer must be nil for jobs that run concurrently (a
// Recorder is not safe for concurrent use). A plan over mapped views runs
// with faults turned into out.err: fault handling is per goroutine, and
// this is where every job's goroutine is.
//
// A cursor (o.After) makes the job a partition that starts at the cursor.
// Let b be how far row a agrees with the plan's resume prefix: no match
// after a binds level b, or anything below it, before a[b] (resumePrefix),
// so the job's body — the whole document's, or its chunk's — is cut to start
// there and the engines seek every list to it exactly as they bind a
// partition's window (SeekStart, charging nothing). A chunk that ends before
// the cursor holds no such match and is skipped. The engines' row filter
// (Options.After) still decides inside the region.
func (p *PreparedQuery) runJob(r *engine.Restriction, interrupt func() error, o *RunOptions) (out jobOut) {
	if p.mapped {
		defer catchViewFault(debug.SetPanicOnFault(true), &out.err)
	}
	t0 := time.Now()
	acct, _ := jobIOs.Get().(*jobIO)
	if acct == nil {
		acct = new(jobIO)
	}
	if o.After != nil {
		b := 0
		for b < len(p.resume) && o.After[b] == p.resume[b] {
			b++
		}
		acct.resume = engine.Restriction{Spine: b, Body: engine.Span{Lo: o.After[b], Hi: math.MaxInt32}}
		if r != nil { // a planned chunk: its per-run copy, cut at the cursor
			acct.resume = *r
			acct.resume.Body.Lo = max(r.Body.Lo, o.After[b])
		}
		if r = &acct.resume; r.Body.Empty() {
			jobIOs.Put(acct)
			out.skipped = true
			return out
		}
	}
	acct.c = counters.Counters{}
	io := &acct.io
	io.Reset(&acct.c)
	out.rows, out.peak, out.err = p.plan.Run(io, engine.Options{
		Tracer:    o.Tracer,
		DiskBased: o.DiskBased,
		Interrupt: interrupt,
		Restrict:  r,
		// The page's quota is every job's own bound: any match in the
		// global first limit is in its own partition's first limit, so
		// each job may stop (or cap its accumulation) there.
		First: o.first(),
		After: o.After,
	})
	out.dur = time.Since(t0)
	out.first = io.FirstMatchTime()
	out.c = acct.c
	jobIOs.Put(acct)
	return out
}

// assemble builds the public Result of a run from its jobs' outcomes (one
// for a sequential run): counters summed, PeakMemoryBytes the largest
// single job's peak, first match the earliest, and Matches the jobs' rows —
// already label-native and in document order — merged and cut to the page.
// That assembly is all the output phase still does: the rows themselves
// were written during enumeration.
func (p *PreparedQuery) assemble(outs []jobOut, r *request) (*Result, error) {
	var (
		c          counters.Counters
		peak       int64
		executed   int
		firstNanos int64
		firstMatch time.Time
	)
	if r.includePrep {
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
		firstNanos = firstMatch.Sub(r.start).Nanoseconds()
	}
	r.Tracer.BeginPhase(obs.PhaseOutput)
	rows := r.slice(mergeJobRows(outs))
	r.Tracer.EndPhase(obs.PhaseOutput)
	res := &Result{
		Matches: rows,
		Stats: Stats{
			ElementsScanned: c.ElementsScanned,
			Comparisons:     c.Comparisons,
			PointerDerefs:   c.PointerDerefs,
			PagesRead:       c.PagesRead,
			PagesWritten:    c.PagesWritten,
			JumpsTaken:      c.JumpsTaken,
			JumpsRefused:    c.JumpsRefused,
			PeakMemoryBytes: peak,
			Duration:        time.Since(r.start),
			FirstMatchNanos: firstNanos,
			Partitions:      executed,
		},
	}
	if r.Tracer != nil { // an untraced run has no report: Trace stays nil
		res.Trace = r.Tracer.Report(c, time.Since(r.start))
		res.Trace.FirstMatchNanos = firstNanos
	}
	return res, nil
}
