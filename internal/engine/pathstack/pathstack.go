// Package pathstack implements the PathStack structural join algorithm of
// Bruno, Koudas & Srivastava (SIGMOD 2002), the "PS"/"TS-on-paths" baseline
// of the paper's motivation experiment (§I, §VI-A).
//
// PathStack evaluates a path query over one element stream per query node
// using a chain of linked stacks: every pushed element records the top of
// its parent's stack at push time, and each leaf push expands into the
// root-to-leaf combinations it closes over. Unlike the shared window stage
// used by TwigStack/ViewJoin, PathStack emits solutions directly from its
// stacks — it is an independent implementation that cross-checks the other
// engines on path queries.
package pathstack

import (
	"fmt"
	"sync"

	"viewjoin/internal/counters"
	"viewjoin/internal/engine"
	"viewjoin/internal/match"
	"viewjoin/internal/obs"
	"viewjoin/internal/store"
	"viewjoin/internal/tpq"
)

// frame is one stack element: a region label plus the index of the top of
// the parent stack at push time (-1 when the parent stack was empty, which
// only happens for the root).
type frame struct {
	l         store.Label
	parentTop int
}

// Prepared is the compile-once part of a PathStack evaluation: the bound
// per-query-node lists. Immutable after construction and safe for
// concurrent Run calls.
type Prepared struct {
	engine.Lists // per query node; also answers the partition planner
	q            *tpq.Pattern
}

// scratches recycles run scratch (cursors, linked stacks, the expansion
// buffer) across every plan: each Run sizes one for its query, so scratch
// is kept per concurrent run rather than per plan.
var scratches sync.Pool // *scratch

// scratch is the per-run state of one PathStack execution, resized and
// reset in place between runs.
type scratch struct {
	cur    []store.ListCursor
	stacks [][]frame
	buf    []store.Label
	ic     engine.Interrupter
	// first/after mirror Options.First/Options.After. PathStack emits
	// leaf-major (out of document order), so a first-k bound cannot stop the
	// scan early; instead the accumulator keeps only the first smallest
	// rows seen so far (periodic Rows.Shrink), bounding peak result
	// memory to O(first) while still scanning every candidate.
	first int
	after []int32
}

// Footprint estimates the plan-resident bytes beyond the shared document
// and view stores: PathStack binds references to existing list files, so
// a cached plan carries only those bindings. Run scratch belongs to the
// package's pool, not to the plan.
func (p *Prepared) Footprint() int64 { return int64(len(p.Lists)) * 8 }

// Prepare binds the path query q over the given lists for repeated runs.
// It returns an error if q is not a path query.
func Prepare(q *tpq.Pattern, lists []*store.ListFile) (*Prepared, error) {
	if !q.IsPath() {
		return nil, fmt.Errorf("pathstack: %s is not a path query", q)
	}
	return &Prepared{q: q, Lists: lists}, nil
}

// Run executes the prepared plan once, drawing scratch from the pool and
// resizing and resetting it in place. The peak-bytes result is always 0:
// PathStack does not track its intermediate state.
func (p *Prepared) Run(io *counters.IO, opts engine.Options) ([][]match.Cell, int64, error) {
	sc, _ := scratches.Get().(*scratch)
	if sc == nil {
		sc = new(scratch)
	}
	n := p.q.Size()
	sc.cur = engine.Fit(sc.cur, n)
	sc.stacks = engine.Fit(sc.stacks, n)
	sc.buf = engine.Fit(sc.buf, n)
	tr := opts.Tracer
	sc.ic = engine.NewInterrupter(opts.Interrupt)
	sc.first, sc.after = opts.First, opts.After
	for i, l := range p.Lists {
		engine.ResetCursor(&sc.cur[i], l, io, tr, i, opts.Restrict)
	}
	for i := range sc.stacks {
		sc.stacks[i] = sc.stacks[i][:0]
	}
	out := p.eval(sc, io.C, tr)
	if err := sc.ic.Err(); err != nil {
		scratches.Put(sc)
		return nil, 0, err
	}
	scratches.Put(sc) // sc must not be touched past this point
	// The linked stacks emit leaf-major (ancestor combinations enumerated
	// newest-first); canonicalize to the lexicographic document order the
	// other engines produce so sequential and partitioned runs are
	// byte-comparable.
	rows := out.Sorted(opts.First)
	io.C.Matches = int64(len(rows))
	if len(rows) > 0 {
		// PathStack cannot stream: time-to-first-match is the full
		// scan+sort, stamped here so the metric reflects that honestly.
		io.MarkFirstMatch()
	}
	return rows, 0, nil
}

// Eval evaluates the path query q over the per-query-node lists using
// PathStack and returns all tree pattern instances (one-shot Prepare +
// Run). It returns an error if q is not a path query.
func Eval(q *tpq.Pattern, lists []*store.ListFile, io *counters.IO, opts engine.Options) ([][]match.Cell, error) {
	p, err := Prepare(q, lists)
	if err != nil {
		return nil, err
	}
	rows, _, err := p.Run(io, opts)
	return rows, err
}

// eval is the PathStack main loop over one run's scratch.
func (p *Prepared) eval(sc *scratch, c *counters.Counters, tr *obs.Recorder) engine.Rows {
	q := p.q
	n := q.Size()
	cur, stacks, buf := sc.cur, sc.stacks, sc.buf
	out := engine.NewRows(q, sc.first)

	for {
		if sc.ic.Check() != nil {
			return out // Run discards it
		}
		// qmin: the valid cursor with the smallest start label.
		qmin := -1
		for i := 0; i < n; i++ {
			if !cur[i].Valid() {
				continue
			}
			if qmin == -1 || cur[i].Start() < cur[qmin].Start() {
				qmin = i
			}
			c.Comparisons++
		}
		if qmin == -1 {
			break
		}
		l := cur[qmin].Label()

		// Pop every stack entry that ended before this element starts.
		for i := 0; i < n; i++ {
			popped := 0
			for len(stacks[i]) > 0 && stacks[i][len(stacks[i])-1].l.End < l.Start {
				stacks[i] = stacks[i][:len(stacks[i])-1]
				popped++
				c.Comparisons++
			}
			if popped > 0 {
				tr.Event(obs.EvStackPop, i, int64(popped))
			}
		}

		pushed := false
		if qmin == 0 {
			if q.Nodes[0].Axis == tpq.Descendant || l.Level == 0 {
				stacks[0] = append(stacks[0], frame{l, -1})
				pushed = true
			}
		} else if len(stacks[qmin-1]) > 0 {
			stacks[qmin] = append(stacks[qmin], frame{l, len(stacks[qmin-1]) - 1})
			pushed = true
		}
		if pushed {
			tr.Event(obs.EvStackPush, qmin, 1)
		}
		if pushed && qmin == n-1 {
			expand(q, stacks, n-1, len(stacks[n-1])-1, buf, c, sc, &out)
			stacks[n-1] = stacks[n-1][:len(stacks[n-1])-1]
			tr.Event(obs.EvStackPop, n-1, 1)
			// Bounded accumulation under a first-k quota: once the buffer
			// grows well past the quota, keep only the first smallest
			// rows. The slack (4x + 64) amortizes the sorts to O(log) per
			// appended row.
			if sc.first > 0 && out.Len() >= 4*sc.first+64 {
				out.Shrink(sc.first)
			}
		}
		cur[qmin].Next()
	}
	return out
}

// expand emits every root-to-leaf combination closed by the frame at
// position fi of stack qi: the element pairs with every frame of the parent
// stack up to its recorded parentTop, subject to the pc-level checks that
// the stacks alone do not enforce.
func expand(q *tpq.Pattern, stacks [][]frame, qi, fi int,
	buf []store.Label, c *counters.Counters, sc *scratch, out *engine.Rows) {
	buf[qi] = stacks[qi][fi].l
	if qi == 0 {
		if sc.ic.Check() != nil {
			return
		}
		if sc.after != nil && !engine.AfterCursor(buf, sc.after) {
			return
		}
		out.Append(buf)
		return
	}
	for pi := stacks[qi][fi].parentTop; pi >= 0; pi-- {
		if sc.ic.Err() != nil {
			return
		}
		c.Comparisons++
		if q.Nodes[qi].Axis == tpq.Child && stacks[qi-1][pi].l.Level != buf[qi].Level-1 {
			continue
		}
		expand(q, stacks, qi-1, pi, buf, c, sc, out)
	}
}
