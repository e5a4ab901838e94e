// Package twigstack implements the holistic twig join baseline of Bruno,
// Koudas & Srivastava (SIGMOD 2002), the "TS" of the paper's experiments.
//
// TwigStack evaluates a TPQ over one element stream per query node using
// the classic getNext cursor discipline and per-node stacks of open
// regions. In this reproduction the streams are the element-family lists of
// the covering views (schemes E, LE, LEp): TS reads the records
// sequentially and ignores any materialized pointers, exactly as the
// paper's extension of TS to linked-element views does — LE/LEp records are
// larger, so TS pays their extra I/O without gaining skipping.
//
// Output goes through the shared window enumeration stage (package enum),
// which verifies every query edge — including the pc-edges for which
// TwigStack's candidate generation is known to over-approximate.
package twigstack

import (
	"math"
	"sync"

	"viewjoin/internal/counters"
	"viewjoin/internal/engine"
	"viewjoin/internal/engine/enum"
	"viewjoin/internal/match"
	"viewjoin/internal/store"
	"viewjoin/internal/tpq"
)

const inf = int32(math.MaxInt32)

// Prepared is the compile-once part of a TwigStack evaluation: the bound
// per-query-node lists. Immutable after construction and safe for
// concurrent Run calls.
type Prepared struct {
	engine.Lists // per query node; also answers the partition planner
	q            *tpq.Pattern
}

// evaluators recycles evaluator scratch (cursors, open-region stacks,
// collector buffers) across every plan: each Run binds one to its plan, so
// scratch is kept per concurrent run rather than per plan.
var evaluators sync.Pool // *evaluator

type evaluator struct {
	p    *Prepared
	cur  []store.ListCursor // exhausted streams read as +inf sentinels
	c    *counters.Counters
	col  *enum.Collector
	open [][]enum.Label // per query node: stack of accepted open regions
	ic   engine.Interrupter
}

// Prepare binds q's evaluation over the given lists for repeated runs.
func Prepare(q *tpq.Pattern, lists []*store.ListFile) *Prepared {
	return &Prepared{q: q, Lists: lists}
}

// Footprint estimates the plan-resident bytes beyond the shared document
// and view stores: TwigStack binds references to existing list files, so
// a cached plan carries only those bindings. Evaluator scratch belongs to
// the package's pool, not to the plan.
func (p *Prepared) Footprint() int64 { return int64(len(p.Lists)) * 8 }

// Run executes the prepared plan once, drawing evaluator scratch from the
// pool, binding it to p and resetting it in place, and returns the rows
// and the peak bytes of window state held (|F_max|). The only error
// condition is a trip of opts.Interrupt (cooperative cancellation).
func (p *Prepared) Run(io *counters.IO, opts engine.Options) ([][]match.Cell, int64, error) {
	e, _ := evaluators.Get().(*evaluator)
	if e == nil {
		e = &evaluator{col: new(enum.Collector)}
	}
	n := p.q.Size()
	e.p = p
	e.cur = engine.Fit(e.cur, n)
	e.open = engine.Fit(e.open, n)
	e.c = io.C
	e.ic = engine.NewInterrupter(opts.Interrupt)
	e.col.Reset(p.q, io, opts.Tracer, opts.DiskBased)
	e.col.SetInterrupt(&e.ic)
	e.col.SetStream(opts.First, opts.After)
	for qi, l := range p.Lists {
		engine.ResetCursor(&e.cur[qi], l, io, qi, opts.Restrict)
	}
	for qi := range e.open {
		e.open[qi] = e.open[qi][:0]
	}
	e.run()
	// Result enumerates the windows still held, so an interrupt can trip
	// inside it too: the error is read after it.
	out, peak, err := e.col.Result(), e.col.MemoryBytes(), e.ic.Err()
	evaluators.Put(e)
	if err != nil && err != engine.ErrStop {
		return nil, 0, err // interrupted: the partial output is abandoned
	}
	// ErrStop is the collector's output quota tripping, not a failure: the
	// bounded output collected so far is the answer.
	return out, peak, nil
}

// Eval evaluates q over the per-query-node lists using TwigStack and
// returns all tree pattern instances (one-shot Prepare + Run).
func Eval(q *tpq.Pattern, lists []*store.ListFile, io *counters.IO, opts engine.Options) ([][]match.Cell, int64, error) {
	return Prepare(q, lists).Run(io, opts)
}

func (e *evaluator) run() {
	for {
		if e.ic.Check() != nil {
			return
		}
		qact := e.getNext(0)
		if !e.cur[qact].Valid() {
			break
		}
		l := e.cur[qact].Label()
		if e.accept(qact, l) {
			e.push(qact, l)
			e.col.Add(qact, l)
		}
		e.cur[qact].Next()
		if e.col.Due() {
			// Cursors only move forward, so the smallest current start is a
			// sound frontier: every future Add starts at or after it.
			f := inf
			for qi := range e.cur {
				f = min(f, e.cur[qi].Start())
			}
			if f < inf {
				e.col.Advance(f)
			}
		}
	}
}

// accept implements TwigStack's stack discipline: the root is always
// accepted; any other node needs an open accepted ancestor for its query
// parent.
func (e *evaluator) accept(qi int, l enum.Label) bool {
	if qi == 0 {
		return true
	}
	p := e.p.q.Nodes[qi].Parent
	s := e.open[p]
	for len(s) > 0 && s[len(s)-1].End < l.Start {
		s = s[:len(s)-1]
		e.c.Comparisons++
	}
	e.open[p] = s
	if len(s) == 0 {
		return false
	}
	e.c.Comparisons++
	return s[len(s)-1].Start < l.Start && l.End < s[len(s)-1].End
}

// push records an accepted candidate as an open region for its query node,
// popping regions that ended before it.
func (e *evaluator) push(qi int, l enum.Label) {
	s := e.open[qi]
	for len(s) > 0 && s[len(s)-1].End < l.Start {
		s = s[:len(s)-1]
	}
	e.open[qi] = append(s, l)
}

// getNext is the classic TwigStack cursor routine: it returns the query
// node whose current cursor entry should be processed next. Exhausted
// cursors act as +inf sentinels; when the returned node's cursor is
// exhausted, evaluation is complete.
func (e *evaluator) getNext(qi int) int {
	children := e.p.q.Nodes[qi].Children
	if len(children) == 0 {
		return qi
	}
	qmin, qmax := -1, -1
	for _, qc := range children {
		r := e.getNext(qc)
		if r != qc && e.cur[r].Valid() {
			return r
		}
		// An exhausted deep return means that subtree is fully drained; the
		// remaining children (and qi itself) may still have useful entries,
		// so fold it into the min/max bookkeeping instead of propagating.
		if qmin == -1 || e.cur[qc].Start() < e.cur[qmin].Start() {
			qmin = qc
		}
		if qmax == -1 || e.cur[qc].Start() > e.cur[qmax].Start() {
			qmax = qc
		}
	}
	// Skip qi-nodes that cannot contain all child candidates.
	cur, maxStart := &e.cur[qi], e.cur[qmax].Start()
	for cur.End() < maxStart {
		if e.ic.Check() != nil {
			return qi
		}
		e.c.Comparisons++
		cur.Next()
	}
	e.c.Comparisons++
	if cur.Start() < e.cur[qmin].Start() {
		return qi
	}
	return qmin
}
