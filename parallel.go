package viewjoin

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"viewjoin/internal/counters"
	"viewjoin/internal/engine"
	"viewjoin/internal/engine/twigstack"
	vjengine "viewjoin/internal/engine/viewjoin"
	"viewjoin/internal/match"
	"viewjoin/internal/obs"
	"viewjoin/internal/store"
	"viewjoin/internal/tpq"
)

// This file implements range-partitioned parallel evaluation: one prepared
// plan executed as K independent jobs over disjoint start-label slices of
// the document, with outputs merged back into sequential order.
//
// Partitions are anchored at the bottom of the query's unary spine — the
// first query node with other than exactly one child. A match binds the
// spine to an ancestor chain of its anchor binding and confines every
// other node to the anchor binding's subtree, so cutting the document
// between the merged subtree spans of the anchor's candidates assigns
// each match to exactly one chunk: the one containing its anchor binding.
// Each job evaluates with non-spine nodes range-restricted to its chunk
// and spine nodes admitted when they overlap it. See DESIGN.md,
// "Range-partitioned parallel evaluation", for the full argument.

// partitionInfo is what the planner needs from a prepared engine: the
// document regions of the anchor node's candidates (to place cuts that no
// match can straddle) and an estimated byte weight of a start range (to
// balance chunks).
type partitionInfo interface {
	AnchorSpans(qi int) []engine.Span
	WeightIn(lo, hi int32) int64
}

// listInfo adapts the list-file engines (ViewJoin, TwigStack, PathStack)
// to partitionInfo: node qi's candidates are the records of lists[qi],
// and weight is the payload bytes of every list's slice — the same
// quantity the page-cost model charges for scanning the slice.
type listInfo struct {
	lists []*store.ListFile
}

func (li listInfo) AnchorSpans(qi int) []engine.Span {
	if qi >= len(li.lists) || li.lists[qi] == nil {
		return nil
	}
	l := li.lists[qi]
	out := make([]engine.Span, l.Entries())
	for i := range out {
		lb := l.LabelAt(i)
		out[i] = engine.Span{Lo: lb.Start, Hi: lb.End}
	}
	return out
}

func (li listInfo) WeightIn(lo, hi int32) int64 {
	var w int64
	for _, l := range li.lists {
		if l == nil {
			continue
		}
		n := l.Entries()
		if n == 0 {
			continue
		}
		rec := l.PayloadBytes() / int64(n)
		w += int64(engine.CountInSpan(l, engine.Span{Lo: lo, Hi: hi})) * rec
	}
	return w
}

func (p *PreparedQuery) partitionInfo() partitionInfo {
	switch p.eng {
	case EngineViewJoin:
		return listInfo{p.vj.Lists()}
	case EngineTwigStack:
		return listInfo{p.ts.Lists()}
	case EnginePathStack:
		return listInfo{p.ps.Lists()}
	case EngineInterJoin:
		return p.ij
	}
	return nil
}

// parallelism resolves the prepare-time Parallelism option: 0 or 1 means
// sequential, negative means GOMAXPROCS.
func (p *PreparedQuery) parallelism() int {
	k := p.opts.Parallelism
	if k < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return k
}

// anchorNode walks the query's unary spine — the maximal pre-order prefix
// in which every node has exactly one child — and returns the index of its
// bottom: the first node with zero or several children. It returns -1 when
// the pattern's spine nodes are not laid out consecutively in pre-order
// (hand-built patterns), which the planner treats as unpartitionable.
func anchorNode(nodes []tpq.Node) int {
	b := 0
	for len(nodes[b].Children) == 1 {
		c := nodes[b].Children[0]
		if c != b+1 {
			return -1
		}
		b = c
	}
	return b
}

// planPartitions builds the job list for a K-way partitioned run, or nil
// when the query cannot be usefully partitioned — callers fall back to
// the sequential path, so partitioning degrades but never errors.
//
// The cut points come from the anchor node's candidates: their document
// regions, merged into disjoint blobs (MergeSpans), are the only places a
// match's anchor binding can live, and no blob's subtree extends into
// another. The blobs are coalesced into at most k chunks balanced by
// estimated page weight; each chunk becomes one job whose restriction
// pins the spine above it and bounds everything else inside it. A single
// blob (e.g. a query anchored at the document root) admits no cut and
// yields no parallelism.
//
// Plans are cached per parallelism degree: the job list is immutable once
// built (restrictions are read-only to the engines), so repeated parallel
// runs of a cached serving plan skip the anchor-span merge entirely.
func (p *PreparedQuery) planPartitions(k int) []engine.Restriction {
	if k <= 1 {
		return nil
	}
	p.partMu.Lock()
	jobs, ok := p.partPlans[k]
	p.partMu.Unlock()
	if ok {
		return jobs
	}
	jobs = p.computePartitions(k)
	p.partMu.Lock()
	if p.partPlans == nil {
		p.partPlans = make(map[int][]engine.Restriction)
	}
	p.partPlans[k] = jobs
	p.partMu.Unlock()
	return jobs
}

func (p *PreparedQuery) computePartitions(k int) []engine.Restriction {
	b := anchorNode(p.q.p.Nodes)
	if b < 0 {
		return nil
	}
	info := p.partitionInfo()
	if info == nil {
		return nil
	}
	blobs := engine.MergeSpans(info.AnchorSpans(b))
	if len(blobs) <= 1 {
		return nil
	}
	chunks := engine.CoalesceSpans(blobs, func(s engine.Span) int64 {
		return info.WeightIn(s.Lo, s.Hi)
	}, k)
	if len(chunks) <= 1 {
		return nil
	}
	jobs := make([]engine.Restriction, len(chunks))
	for i, ch := range chunks {
		jobs[i] = engine.Restriction{Spine: b, Body: ch}
	}
	return jobs
}

// spineOrdered reports whether match order across ascending partition
// chunks follows job index. Matches compare lexicographically by binding
// start, walking the unary spine before reaching the anchor; when every
// spine node above the anchor binds at most one candidate — e.g. the §VI
// queries, all rooted at the single //site element — two matches from
// different jobs first differ at the anchor itself, whose chunks ascend
// with job index. A root anchor is ordered trivially. With several
// candidates at a spine level the cross-job comparison can invert (a
// later chunk's match may bind an earlier-starting spine ancestor), so
// neither the shared quota cutoff nor streamed merging is sound.
func (p *PreparedQuery) spineOrdered() bool {
	p.partMu.Lock()
	cached := p.spineOrd
	p.partMu.Unlock()
	if cached != 0 {
		return cached > 0
	}
	ordered := func() bool {
		b := anchorNode(p.q.p.Nodes)
		if b <= 0 {
			return b == 0
		}
		info := p.partitionInfo()
		if info == nil {
			return false
		}
		for qi := 0; qi < b; qi++ {
			if len(info.AnchorSpans(qi)) > 1 {
				return false
			}
		}
		return true
	}()
	p.partMu.Lock()
	if ordered {
		p.spineOrd = 1
	} else {
		p.spineOrd = -1
	}
	p.partMu.Unlock()
	return ordered
}

// RunParallel executes the prepared plan as a range-partitioned parallel
// run across up to k workers (k <= 0 uses GOMAXPROCS) and returns a Result
// byte-identical to Run's: same matches in the same order, counters summed
// across partitions, PeakMemoryBytes the largest single partition's peak,
// and Stats.Partitions the number of jobs executed. When the plan yields
// fewer than two jobs the run degrades to the sequential path. ctx bounds
// every partition cooperatively, exactly as RunContext; a nil ctx runs
// uninterruptible. Safe for concurrent use under the same conditions as
// Run (prepare-time Tracer must be nil for concurrent calls).
func (p *PreparedQuery) RunParallel(ctx context.Context, k int) (*Result, error) {
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
	}
	return p.runParallel(ctx, k, p.limits(), time.Now(), false, p.opts.Tracer)
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

// quotaState coordinates a shared first-k quota across partition jobs.
// Jobs are planned over ascending document chunks; when the cross-job
// order follows job index (spineOrdered), once the maximal completed
// prefix of jobs has produced quota matches, no later job can contribute
// to the page: the cutoff index tells not-yet-started jobs to skip
// entirely and in-flight later jobs to stop at their next interrupt poll
// (engine.ErrStop — their partial output sorts after the quota and is
// sliced away). When spine bindings above the chunk break the cross-job
// ordering, only the per-job quota applies (sound for any anchor: a match
// in the global first quota is in its own job's first quota).
type quotaState struct {
	quota  int
	cutoff atomic.Int64 // first job index that cannot contribute
	mu     sync.Mutex
	done   []bool
	counts []int
}

func newQuotaState(quota, jobs int) *quotaState {
	qs := &quotaState{quota: quota, done: make([]bool, jobs), counts: make([]int, jobs)}
	qs.cutoff.Store(int64(jobs))
	return qs
}

// complete records job i's match count and advances the cutoff when the
// completed prefix alone satisfies the quota.
func (qs *quotaState) complete(i, count int) {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	qs.done[i] = true
	qs.counts[i] = count
	sum := 0
	for j := 0; j < len(qs.done) && qs.done[j]; j++ {
		sum += qs.counts[j]
		if sum >= qs.quota {
			if int64(j+1) < qs.cutoff.Load() {
				qs.cutoff.Store(int64(j + 1))
			}
			return
		}
	}
}

// runParallel plans and executes a run across up to k partitions; k <= 1, or
// a plan that admits no cut, runs sequentially. Partitions run with
// nil tracers (Tracer implementations are not concurrency-safe); the
// orchestrator instead emits one EvPartition event per job carrying its
// wall time, so traced runs still expose the partition-span distribution.
//
// Under a limit (lim.first() > 0) every job runs with the shared quota as
// its own first-k bound, and when cross-job order follows job index
// (spineOrdered) a quotaState additionally stops scanning partitions that
// can no longer contribute to the page (see quotaState). Job outputs —
// each already in document order — are combined by a k-way document-order
// merge and the page sliced from the merged prefix.
func (p *PreparedQuery) runParallel(ctx context.Context, k int, lim limits, start time.Time, includePrep bool, tr obs.Tracer) (*Result, error) {
	jobs := p.planPartitions(k)
	if len(jobs) <= 1 {
		return p.run(ctx, lim, nil, start, includePrep, tr)
	}
	interrupt, err := p.interruptFor(ctx)
	if err != nil {
		return nil, err
	}
	var qs *quotaState
	if lim.first() > 0 && p.spineOrdered() {
		qs = newQuotaState(lim.first(), len(jobs))
	}
	if tr != nil {
		if pl := p.lazyPlan(); pl != nil {
			tr.Plan(pl)
		}
		tr.BeginPhase(obs.PhaseEvaluate)
	}
	outs := make([]jobOut, len(jobs))
	workers := k
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if qs != nil && int64(i) >= qs.cutoff.Load() {
					outs[i].skipped = true
					qs.complete(i, 0)
					continue
				}
				jobInterrupt := interrupt
				if qs != nil {
					jobInterrupt = func() error {
						if int64(i) >= qs.cutoff.Load() {
							return engine.ErrStop
						}
						if interrupt != nil {
							return interrupt()
						}
						return nil
					}
				}
				outs[i] = p.runJob(&jobs[i], jobInterrupt, lim, nil, nil)
				if qs != nil {
					qs.complete(i, len(outs[i].rows))
				}
			}
		}()
	}
	wg.Wait()
	if tr != nil {
		for i := range outs {
			if !outs[i].skipped {
				tr.Event(obs.EvPartition, -1, int64(outs[i].dur))
			}
		}
		tr.EndPhase(obs.PhaseEvaluate)
	}
	return p.buildResult(outs, lim, includePrep, start, tr)
}

// mergeJobRows k-way merges the per-job outputs — each already sorted in
// document order — into one document-ordered header slice over the jobs'
// chunks (no cell is copied). Jobs bound disjoint anchor ranges but spine
// bindings above them are not chunk-ordered, so concatenation would not
// restore the canonical lexicographic order every sequential engine emits.
func mergeJobRows(outs []jobOut) [][]Node {
	var rows [][]Node
	total, live := 0, 0
	for i := range outs {
		if n := len(outs[i].rows); n > 0 {
			rows, total, live = outs[i].rows, total+n, live+1
		}
	}
	if live <= 1 {
		return rows // at most one job produced rows: nothing to interleave
	}
	rows = make([][]Node, 0, total)
	pos := make([]int, len(outs))
	for len(rows) < total {
		best := -1
		for i := range outs {
			if pos[i] >= len(outs[i].rows) {
				continue
			}
			if best < 0 || match.RowLess(outs[i].rows[pos[i]], outs[best].rows[pos[best]]) {
				best = i
			}
		}
		rows = append(rows, outs[best].rows[pos[best]])
		pos[best]++
	}
	return rows
}

// jobIO is one job's cost accounting: its counters and the simulated buffer
// pool charging them. The plan recycles them through ioPool, so a run
// resets a pool instead of allocating one.
type jobIO struct {
	io counters.IO
	c  counters.Counters
}

// runJob executes the plan once over restriction r (nil: the whole
// document) with its own counters and its own buffer pool of the configured
// size (pools simulate per-cursor-set caching and cannot be shared across
// goroutines). A non-nil emit streams the job's rows instead of
// accumulating them (ViewJoin/TwigStack only). tr must be nil for jobs that
// run concurrently (Tracer implementations are not concurrency-safe).
func (p *PreparedQuery) runJob(r *engine.Restriction, interrupt func() error, lim limits, emit func(row []Node) bool, tr obs.Tracer) jobOut {
	t0 := time.Now()
	var out jobOut
	acct, _ := p.ioPool.Get().(*jobIO)
	if acct == nil {
		acct = new(jobIO)
	}
	acct.c = counters.Counters{}
	io := &acct.io
	io.Reset(&acct.c, p.opts.BufferPoolPages)
	io.SetStall(p.opts.IOLatency)
	if tr != nil {
		io.Page = pageHook(tr)
	}
	eopts := engine.Options{
		Tracer:         tr,
		DiskBased:      p.opts.DiskBased,
		PageSize:       p.opts.PageSize,
		UnguardedJumps: p.opts.UnguardedJumps,
		Interrupt:      interrupt,
		Restrict:       r,
		// The shared quota doubles as the per-job bound: any match in the
		// global first offset+limit is in its own partition's first
		// offset+limit, so each job may stop (or cap its accumulation)
		// there.
		First: lim.first(),
		After: lim.after,
		Emit:  emit,
	}
	switch p.eng {
	case EngineViewJoin:
		var st vjengine.Stats
		out.rows, st, out.err = p.vj.Run(io, eopts)
		out.peak = int64(st.PeakWindowEntries) * 16
	case EngineTwigStack:
		var st twigstack.Stats
		out.rows, st, out.err = p.ts.Run(io, eopts)
		out.peak = int64(st.PeakWindowEntries) * 16
	case EnginePathStack:
		out.rows, out.err = p.ps.Run(io, eopts)
	case EngineInterJoin:
		out.rows, out.err = p.ij.Run(io, eopts)
	}
	io.DrainStall()
	out.dur = time.Since(t0)
	out.first = io.FirstMatchTime()
	out.c = acct.c
	io.Page = nil // the hook holds the run's tracer
	p.ioPool.Put(acct)
	return out
}

// runParallelStream executes a bounded partitioned run delivering rows to
// yield incrementally: each job streams its rows — kept in chunks of its
// own, so the channel carries row headers — into a per-job channel and the
// consumer drains the channels in job index order, which under
// spineOrdered is document order across jobs — so the first row is
// available as soon as job 0's engine emits it, while the other
// partitions are still scanning. Channel buffers hold the full per-job
// quota (every job emits at most lim.first() matches), so workers never
// block on a slow consumer and an early stop needs no drain protocol.
// The shared quotaState stops partitions that cannot contribute, and the
// consumer additionally latches a stop — observed at the engines' next
// interrupt poll — once the page is delivered or yield declines.
//
// Callers guarantee: len(jobs) > 1, lim.first() > 0, p.spineOrdered(),
// and a streaming engine (ViewJoin or TwigStack).
func (p *PreparedQuery) runParallelStream(ctx context.Context, jobs []engine.Restriction, lim limits, start time.Time, yield func(row []Node) bool) (*Result, error) {
	interrupt, err := p.interruptFor(ctx)
	if err != nil {
		return nil, err
	}
	qs := newQuotaState(lim.first(), len(jobs))
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	chans := make([]chan []Node, len(jobs))
	for i := range chans {
		chans[i] = make(chan []Node, lim.first())
	}
	outs := make([]jobOut, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer close(chans[i])
			if int64(i) >= qs.cutoff.Load() {
				outs[i].skipped = true
				qs.complete(i, 0)
				return
			}
			jobInterrupt := func() error {
				if int64(i) >= qs.cutoff.Load() {
					return engine.ErrStop
				}
				select {
				case <-stop:
					return engine.ErrStop
				default:
				}
				if interrupt != nil {
					return interrupt()
				}
				return nil
			}
			kept := engine.NewRows(p.q.p, lim.first())
			outs[i] = p.runJob(&jobs[i], jobInterrupt, lim, func(row []Node) bool {
				chans[i] <- kept.AppendRow(row)
				return true
			}, nil)
			qs.complete(i, kept.Len())
		}(i)
	}

	skip := lim.offset
	delivered := 0
	for i := range chans {
		for row := range chans[i] {
			if lim.limit > 0 && delivered >= lim.limit {
				continue // page done: drain the bounded remainder
			}
			if skip > 0 {
				skip--
				continue
			}
			delivered++
			if !yield(row) || (lim.limit > 0 && delivered >= lim.limit) {
				halt()
			}
		}
	}
	wg.Wait()

	return p.buildResult(outs, limits{}, false, start, nil)
}
