// Package viewjoin implements the ViewJoin algorithm (§IV of the paper):
// holistic evaluation of a tree pattern query over a minimal covering set
// of materialized TPQ views stored in an element-family scheme (E, LE,
// LEp).
//
// The evaluation follows the paper's two-step structure:
//
//  1. Evaluate the view-segmented query Q' (package vsq): a getNext cursor
//     discipline recurses over segments rather than query nodes, performing
//     structural comparisons only across inter-view edges. Within a
//     segment the structural joins are precomputed by the view, so member
//     cursors are coordinated through materialized child pointers and bulk
//     additions (the paper's addNodes), and useless regions are skipped by
//     following-pointer jumps (the paper's advancePointers).
//  2. Extend each output window with the query nodes that were removed
//     from Q' by following child pointers from their view parents' first
//     matches (the paper's "extend F to cover nodes in Q via pointers"),
//     then enumerate matches with every edge of the original Q verified.
//
// # Deviations from the paper's pseudocode
//
// The paper's Functions 3-4 jump cursors through scoped following pointers
// and reposition member cursors through child pointers unconditionally.
// Both jumps can skip entries that still participate in matches when
// same-type elements nest (see DESIGN.md); real XML datasets rarely nest
// the queried types, which is presumably why the paper never hits the
// case. This implementation guards every jump:
//
//   - a scoped following-pointer jump is taken only when the jump target
//     starts at or before the alignment target (unscoped jumps are always
//     safe);
//   - a member reposition through a child pointer is taken only when no
//     open accepted ancestor still covers the member's current entry.
//
// When a jump is rejected the cursor falls back to a sequential advance,
// exactly like the LEp scheme's fallback for unmaterialized pointers, so
// the guards never cost more than the paper's own degraded path.
package viewjoin

import (
	"fmt"
	"sync"

	"viewjoin/internal/counters"
	"viewjoin/internal/engine"
	"viewjoin/internal/engine/enum"
	"viewjoin/internal/match"
	"viewjoin/internal/obs"
	"viewjoin/internal/store"
	"viewjoin/internal/vsq"
)

// Stats reports run statistics beyond the shared counters.
type Stats struct {
	// PeakWindowEntries is |F_max| in entries (memory-based approach).
	PeakWindowEntries int
	// Segments is the number of segments in the view-segmented query.
	Segments int
}

// Prepared is the compile-once part of a ViewJoin evaluation: the bound
// lists, the inverse view maps, and a pool of reusable evaluator scratch
// state. A Prepared is immutable after construction and safe for
// concurrent Run calls; each Run takes an evaluator from the pool (or
// allocates a fresh one) and returns it afterwards, so repeated runs pay
// for cursor movement and enumeration only — the costs the paper's §V
// model charges — not for setup.
type Prepared struct {
	v     *vsq.VSQ
	lists []*store.ListFile

	// viewParentQ[qi] is the query node of qi's parent within its view, or
	// -1 when qi is a view root; viewChildSlot[qi] is qi's child-pointer
	// slot in that parent's records.
	viewParentQ   []int
	viewChildSlot []int
	// removedChildren[qi] lists the removed query nodes whose view parent
	// is qi (extension targets).
	removedChildren [][]int
	// isSegRoot[qi] reports whether qi is the root of its segment.
	isSegRoot []bool

	primeNodes   []int // cached v.PrimeNodes()
	removedNodes []int // cached v.RemovedNodes()

	pool sync.Pool // *evaluator
}

type evaluator struct {
	p  *Prepared
	io *counters.IO
	tr obs.Tracer // nil when tracing is off

	// curBuf backs cur so per-run cursor state is reset in place instead of
	// reallocated; cur[qi] is nil for removed nodes.
	curBuf []store.ListCursor
	cur    []*store.ListCursor
	col    *enum.Collector

	// open[qi] logs the accepted regions of qi in the current window, in
	// ascending start order (each node's admissions follow its own cursor),
	// with a prefix maximum of the end labels for O(log n) containment
	// checks. This plays the role of the paper's "has a p-type ancestor in
	// F" test (Function 3 line 12): unlike a pop-on-push stack it tolerates
	// the out-of-document-order admissions that bulk segment adds produce.
	open []regionLog

	// Window-extension state: extCur are lazy persistent cursors (backed by
	// extBuf) for removed nodes; extJump holds, per removed node, the child
	// pointer captured from the first in-window candidate of its view
	// parent.
	extBuf  []store.ListCursor
	extCur  []*store.ListCursor
	extJump []store.Pointer
	hasJump []bool

	winOpen bool
	winEnd  int32

	// ic is the run's cooperative cancellation checker, polled from the
	// main loop and shared with the collector's enumeration stage.
	ic engine.Interrupter

	// unguarded disables the safe-jump probe rule on scoped following
	// pointers (ablation mode: the paper's Function 4 jumps them
	// unconditionally; see package docs).
	unguarded bool

	// restrict is the run's partition restriction (nil = whole document);
	// kept so the lazily-opened extension cursors bind to the same list
	// slice as the prime cursors.
	restrict *engine.Restriction

	// streaming gates the per-iteration frontier hand-off feeding the
	// collector's partial flushes; plain accumulating runs skip it.
	streaming bool
}

// Prepare compiles the view-segmented query against the element-family
// stores of its views: lists are bound and the inverse view maps computed
// once, ready for any number of Run calls.
func Prepare(v *vsq.VSQ, stores []*store.ViewStore, tr obs.Tracer) (*Prepared, error) {
	if tr != nil {
		tr.BeginPhase(obs.PhaseBind)
	}
	lists, err := engine.BindLists(v, stores)
	if tr != nil {
		tr.EndPhase(obs.PhaseBind)
	}
	if err != nil {
		return nil, fmt.Errorf("viewjoin: %w", err)
	}
	n := v.Query.Size()
	p := &Prepared{
		v:               v,
		lists:           lists,
		viewParentQ:     make([]int, n),
		viewChildSlot:   make([]int, n),
		removedChildren: make([][]int, n),
		isSegRoot:       make([]bool, n),
		primeNodes:      v.PrimeNodes(),
		removedNodes:    v.RemovedNodes(),
	}
	p.buildViewMaps()
	for _, qi := range p.primeNodes {
		p.isSegRoot[qi] = v.Segments[v.SegOf[qi]].Root == qi
	}
	return p, nil
}

// Lists returns the per-query-node list files the plan is bound to, for
// partition planning.
func (p *Prepared) Lists() []*store.ListFile { return p.lists }

// Footprint estimates the plan-resident bytes beyond the shared document
// and view stores: the per-query-node segmentation tables built at
// Prepare time plus the list bindings. Pooled evaluator scratch is per-run,
// recycled state and is excluded.
func (p *Prepared) Footprint() int64 {
	f := int64(len(p.viewParentQ))*8 + int64(len(p.viewChildSlot))*8 + int64(len(p.isSegRoot))
	f += int64(len(p.primeNodes)+len(p.removedNodes)) * 8
	for _, rc := range p.removedChildren {
		f += 24 + int64(len(rc))*8
	}
	return f + int64(len(p.lists))*8
}

// Run executes the prepared plan once: evaluator scratch state (cursors,
// region logs, collector buffers, extension state) comes from the pool and
// is reset in place, so a warm Run allocates only for the output.
func (p *Prepared) Run(io *counters.IO, opts engine.Options) ([][]match.Cell, Stats, error) {
	e, _ := p.pool.Get().(*evaluator)
	if e == nil {
		e = newEvaluator(p)
	}
	e.reset(io, opts)
	e.run()
	if err := e.ic.Err(); err != nil && err != engine.ErrStop {
		// Interrupted: abandon the partial output. The evaluator still goes
		// back to the pool — reset clears every piece of scratch on reuse.
		p.pool.Put(e)
		return nil, Stats{}, err
	}
	// ErrStop is the collector's output quota tripping, not a failure: the
	// bounded output collected so far is the answer.
	out := e.col.Result()
	st := Stats{PeakWindowEntries: e.col.PeakEntries(), Segments: len(p.v.Segments)}
	p.pool.Put(e)
	return out, st, nil
}

// Eval evaluates the view-segmented query's underlying query over the
// element-family stores of its views and returns all tree pattern
// instances of the original query (one-shot Prepare + Run).
func Eval(v *vsq.VSQ, stores []*store.ViewStore, io *counters.IO,
	opts engine.Options) ([][]match.Cell, Stats, error) {
	p, err := Prepare(v, stores, opts.Tracer)
	if err != nil {
		return nil, Stats{}, err
	}
	return p.Run(io, opts)
}

// newEvaluator allocates the per-run scratch for one pooled evaluator; all
// of it is reset in place by reset on every reuse.
func newEvaluator(p *Prepared) *evaluator {
	n := p.v.Query.Size()
	e := &evaluator{
		p:       p,
		curBuf:  make([]store.ListCursor, n),
		cur:     make([]*store.ListCursor, n),
		col:     enum.NewCollector(p.v.Query, nil, nil, false, 0),
		open:    make([]regionLog, n),
		extBuf:  make([]store.ListCursor, n),
		extCur:  make([]*store.ListCursor, n),
		extJump: make([]store.Pointer, n),
		hasJump: make([]bool, n),
	}
	if len(p.removedNodes) > 0 {
		e.col.PreFlush = e.extendWindow
	}
	return e
}

// reset rebinds the per-run accounting and options and clears every piece
// of scratch state, keeping capacity.
func (e *evaluator) reset(io *counters.IO, opts engine.Options) {
	e.io, e.tr = io, opts.Tracer
	e.unguarded = opts.UnguardedJumps
	e.restrict = opts.Restrict
	e.ic = engine.NewInterrupter(opts.Interrupt)
	e.col.Reset(io, opts.Tracer, opts.DiskBased, opts.PageSize)
	e.col.SetInterrupt(&e.ic)
	e.col.SetStream(opts.Emit, opts.First, opts.After)
	e.streaming = opts.Emit != nil || opts.First > 0
	e.winOpen, e.winEnd = false, 0
	for _, qi := range e.p.primeNodes {
		engine.ResetCursor(&e.curBuf[qi], e.p.lists[qi], io, opts.Tracer, qi, opts.Restrict)
		e.cur[qi] = &e.curBuf[qi]
	}
	for i := range e.open {
		e.open[i].reset()
		e.extCur[i] = nil
		e.hasJump[i] = false
	}
}

// buildViewMaps precomputes, for every query node, its view parent's query
// node and its child-pointer slot, plus the removed-children extension map.
func (p *Prepared) buildViewMaps() {
	// viewNodeToQuery[vi][ni] inverts v.ViewNode.
	inv := make([][]int, len(p.v.Views))
	for vi, view := range p.v.Views {
		inv[vi] = make([]int, view.Size())
	}
	for qi := 0; qi < p.v.Query.Size(); qi++ {
		inv[p.v.Owner[qi]][p.v.ViewNode[qi]] = qi
	}
	for qi := 0; qi < p.v.Query.Size(); qi++ {
		vi, ni := p.v.Owner[qi], p.v.ViewNode[qi]
		view := p.v.Views[vi]
		pn := view.Nodes[ni].Parent
		if pn == -1 {
			p.viewParentQ[qi] = -1
			p.viewChildSlot[qi] = -1
			continue
		}
		p.viewParentQ[qi] = inv[vi][pn]
		for ci, c := range view.Nodes[pn].Children {
			if c == ni {
				p.viewChildSlot[qi] = ci
				break
			}
		}
	}
	for _, x := range p.removedNodes {
		if vp := p.viewParentQ[x]; vp != -1 {
			p.removedChildren[vp] = append(p.removedChildren[vp], x)
		}
	}
}

func (e *evaluator) valid(qi int) bool { return e.cur[qi] != nil && e.cur[qi].Valid() }

func (e *evaluator) start(qi int) int32 { return e.cur[qi].Item().Start }

// run is the paper's Algorithm 1 main loop: pull the next solution node in
// document order from the root segment, add it (and its segment's aligned
// members) to the window DAG, and let the collector flush windows.
func (e *evaluator) run() {
	root := e.p.v.RootSegment()
	for {
		if e.ic.Check() != nil {
			return
		}
		qi := e.getNext(root)
		if qi == -1 {
			break
		}
		if e.streaming {
			// getNext returns the minimum-start valid cursor and cursors only
			// move forward, so its start is a sound frontier for the
			// collector's partial flushes: every future add — including bulk
			// segment members, which copy current cursor items — starts at or
			// after it. (Extension candidates are pulled synchronously inside
			// the flush via PreFlush, so they never violate the bound.)
			e.col.Advance(e.start(qi))
		}
		e.process(qi)
	}
}

// process accepts or rejects the current entry of qi and advances its
// cursor. Segment roots are checked against their inter-view parent's open
// regions; members are trusted (their joins are precomputed in the view).
func (e *evaluator) process(qi int) {
	it := e.cur[qi].Item()
	l := enum.Label{Start: it.Start, End: it.End, Level: it.Level}
	accepted := true
	if qi != 0 && e.p.isSegRoot[qi] {
		e.io.C.Comparisons++
		accepted = e.openContains(e.p.v.PrimeParent[qi], l.Start)
	}
	if accepted {
		e.admit(qi, l, it)
		if e.p.isSegRoot[qi] {
			e.bulkAddMembers(qi, l)
		}
	}
	e.cur[qi].Next()
}

// admit pushes an accepted candidate: window bookkeeping for the query
// root, open-region stacks, the collector, and extension-jump capture.
func (e *evaluator) admit(qi int, l enum.Label, it *store.Item) {
	if qi == 0 {
		if !e.winOpen || l.Start > e.winEnd {
			e.winOpen, e.winEnd = true, l.End
			for i := range e.hasJump {
				e.hasJump[i] = false
				if e.tr != nil && len(e.open[i].starts) > 0 {
					e.tr.Event(obs.EvStackPop, i, int64(len(e.open[i].starts)))
				}
				e.open[i].reset()
			}
		}
	}
	e.open[qi].add(l)
	if e.tr != nil {
		e.tr.Event(obs.EvStackPush, qi, 1)
	}
	e.col.Add(qi, l)
	e.captureExtJumps(qi, it, l)
}

// captureExtJumps records, per window, the minimal child pointer from qi's
// in-window candidates toward each of its removed view children. The
// minimum over all parents is a lower bound on every extension-relevant
// entry (a single parent's pointer is not: with pc-edges, a nested parent's
// child can precede the first parent's first child). Pointers are record
// offsets, so their order coincides with list order within one file and
// the minimum is computable without dereferencing.
func (e *evaluator) captureExtJumps(qi int, it *store.Item, l enum.Label) {
	if len(e.p.removedChildren[qi]) == 0 || !e.winOpen || l.Start > e.winEnd {
		return
	}
	for _, x := range e.p.removedChildren[qi] {
		ptr := it.Children[e.p.viewChildSlot[x]]
		if ptr.IsNil() {
			continue // E scheme: no pointers; extension scans sequentially
		}
		if !e.hasJump[x] || ptr < e.extJump[x] {
			e.extJump[x] = ptr
			e.hasJump[x] = true
		}
	}
}

// bulkAddMembers is the paper's addNodes: when a segment root is accepted,
// the current cursor entries of the segment's members that fall inside the
// root's region are solution candidates by the precomputed view joins; add
// them all without structural comparisons and advance their cursors.
func (e *evaluator) bulkAddMembers(rootQ int, rootL enum.Label) {
	seg := e.p.v.Segments[e.p.v.SegOf[rootQ]]
	for _, m := range seg.Nodes {
		if m == rootQ || !e.valid(m) {
			continue
		}
		it := e.cur[m].Item()
		if it.Start > rootL.Start && it.Start < rootL.End {
			l := enum.Label{Start: it.Start, End: it.End, Level: it.Level}
			e.admit(m, l, it)
			e.cur[m].Next()
		}
	}
}

// openContains reports whether any accepted region of qi in the current
// window contains position s.
func (e *evaluator) openContains(qi int, s int32) bool {
	return e.open[qi].covers(s)
}

// getNext is the paper's Function 3 lifted to this implementation: it
// recurses over segments, aligns each child segment root against its
// inter-view parent (skipping provably useless entries on both sides via
// pointers), and returns the frontier node — the valid cursor with the
// smallest start among the segment's members and its child segments'
// results — or -1 when the subtree is drained.
func (e *evaluator) getNext(b *vsq.Segment) int {
	best := -1
	bestStart := int32(0)
	for _, bsID := range b.Children {
		bs := e.p.v.Segments[bsID]
		r := e.getNext(bs)
		e.align(bs.Root)
		if r != bs.Root && r != -1 && e.valid(r) {
			if best == -1 || e.start(r) < bestStart {
				best, bestStart = r, e.start(r)
			}
			continue
		}
		// The alignment may have moved the root's cursor; use its current
		// position.
		if e.valid(bs.Root) {
			if best == -1 || e.start(bs.Root) < bestStart {
				best, bestStart = bs.Root, e.start(bs.Root)
			}
		}
	}
	for _, qi := range b.Nodes {
		if e.valid(qi) {
			if best == -1 || e.start(qi) < bestStart {
				best, bestStart = qi, e.start(qi)
			}
		}
	}
	return best
}

// align applies the paper's skipping rules across the inter-view edge into
// segment root rs (prime parent p):
//
//   - leading rs entries that start before p's cursor and are covered by no
//     open p region are non-solutions: advance rs past them (Function 3
//     lines 14-16);
//   - p entries that end before rs's current start cannot contain any
//     remaining rs candidate: advance p, jumping through following pointers
//     where safe, and reposition p's segment members through child pointers
//     (Function 4, advancePointers).
func (e *evaluator) align(rs int) {
	p := e.p.v.PrimeParent[rs]
	if p == -1 {
		return
	}
	for {
		if e.ic.Check() != nil {
			return
		}
		if !e.valid(rs) {
			// No further rs candidates: remaining p entries can only start
			// after every collected rs candidate, so they are useless too.
			e.advancePointers(p, maxInt32)
			return
		}
		rsStart := e.start(rs)
		if e.valid(p) && rsStart < e.start(p) && !e.openContains(p, rsStart) {
			e.io.C.Comparisons++
			// rs's current entry is a non-solution. Where rs's view parent's
			// cursor is already ahead, its child pointer skips the whole run
			// of dead entries at once (the paper's advantage (2), §III-B);
			// otherwise advance sequentially.
			if !e.jumpViaViewParent(rs) {
				e.cur[rs].Next()
			}
			continue
		}
		if e.valid(p) && e.cur[p].Item().End < rsStart {
			e.io.C.Comparisons++
			e.advancePointers(p, rsStart)
			continue
		}
		return
	}
}

// jumpViaViewParent tries to reposition m's cursor through its view
// parent's current child pointer: the target is the first m-entry under
// the parent's current entry, skipping every entry before it. The jump is
// taken only when it moves forward and no open accepted region of the view
// parent still covers the skipped range.
func (e *evaluator) jumpViaViewParent(m int) bool {
	vp := e.p.viewParentQ[m]
	if vp == -1 || e.cur[vp] == nil || !e.valid(vp) {
		return false
	}
	mStart := e.start(m)
	vpStart := e.start(vp)
	if mStart >= vpStart {
		return false
	}
	if e.openCovers(vp, mStart, vpStart) {
		e.io.C.JumpsRefused++
		if e.tr != nil {
			e.tr.Event(obs.EvJumpRefused, m, 1)
		}
		return false
	}
	ptr := e.cur[vp].Item().Children[e.p.viewChildSlot[m]]
	if ptr.IsNil() {
		return false
	}
	from := e.cur[m].Position()
	probe := *e.cur[m]
	probe.Seek(ptr)
	if probe.Valid() && probe.Item().Start <= mStart {
		e.io.C.JumpsRefused++
		if e.tr != nil {
			e.tr.Event(obs.EvJumpRefused, m, 1)
		}
		return false // stale/backward pointer: fall back to sequential
	}
	*e.cur[m] = probe
	e.io.C.JumpsTaken++
	if e.tr != nil {
		l := e.p.lists[m]
		e.tr.Event(obs.EvJumpTaken, m, int64(l.PageOf(ptr)-l.PageOf(from)))
	}
	return true
}

const maxInt32 = int32(1<<31 - 1)

// advancePointers advances p's cursor past every entry that ends before
// target, following materialized following pointers where the jump is
// provably safe, then repositions p's in-segment descendants.
func (e *evaluator) advancePointers(p int, target int32) {
	moved := false
	for e.valid(p) && e.cur[p].Item().End < target {
		if e.ic.Check() != nil {
			return
		}
		e.io.C.Comparisons++
		it := e.cur[p].Item()
		jumped := false
		if !it.Following.IsNil() {
			from := e.cur[p].Position()
			probe := *e.cur[p] // stack copy: probing must not disturb the cursor
			probe.Seek(it.Following)
			safe := e.unguarded || !e.p.lists[p].Scoped() || target == maxInt32 ||
				(probe.Valid() && probe.Item().Start <= target)
			if safe {
				*e.cur[p] = probe
				jumped = true
				e.io.C.JumpsTaken++
				if e.tr != nil {
					l := e.p.lists[p]
					e.tr.Event(obs.EvJumpTaken, p, int64(l.PageOf(it.Following)-l.PageOf(from)))
				}
			} else {
				e.io.C.JumpsRefused++
				if e.tr != nil {
					e.tr.Event(obs.EvJumpRefused, p, 1)
				}
			}
		}
		if !jumped {
			e.cur[p].Next()
		}
		moved = true
	}
	if moved {
		e.repositionMembers(p)
	}
}

// repositionMembers seeks the Q' nodes whose view parent is p forward via
// p's child pointers after p's cursor moved (the paper's Function 4 lines
// 4-13: cursors of same-view descendants follow the parent's materialized
// child pointers — across segment boundaries, as in Example 4.2 where C_e
// jumps via a2's child pointer). A member entry is only skipped when no
// open accepted region of p still covers it (the guard that keeps the
// paper's Function 4 sound under same-type nesting: any later acceptance
// of an entry in the skipped range would require an open p ancestor).
// Falls back to sequential advance when no pointer is materialized (E
// scheme, or LEp gaps).
func (e *evaluator) repositionMembers(p int) {
	if !e.valid(p) {
		return
	}
	pStart := e.start(p)
	pIt := e.cur[p].Item()
	for _, m := range e.p.primeNodes {
		if e.p.viewParentQ[m] != p || !e.valid(m) {
			continue
		}
		if e.start(m) >= pStart {
			continue
		}
		if e.openCovers(p, e.start(m), pStart) {
			continue
		}
		if ptr := pIt.Children[e.p.viewChildSlot[m]]; !ptr.IsNil() {
			from := e.cur[m].Position()
			probe := *e.cur[m]
			probe.Seek(ptr)
			// Forward jumps only; a stale pointer behind the cursor would
			// rewind and re-add entries.
			if !probe.Valid() || probe.Item().Start > e.start(m) {
				*e.cur[m] = probe
				e.io.C.JumpsTaken++
				if e.tr != nil {
					l := e.p.lists[m]
					e.tr.Event(obs.EvJumpTaken, m, int64(l.PageOf(ptr)-l.PageOf(from)))
				}
			} else {
				e.io.C.JumpsRefused++
				if e.tr != nil {
					e.tr.Event(obs.EvJumpRefused, m, 1)
				}
			}
		} else {
			for e.valid(m) && e.start(m) < pStart && !e.openCovers(p, e.start(m), pStart) {
				e.io.C.Comparisons++
				e.cur[m].Next()
			}
		}
		e.repositionMembers(m)
	}
}

// openCovers reports whether any accepted region of qi covers any position
// in [s, hi): if so, entries at s may still pair with an accepted ancestor
// and must not be skipped.
func (e *evaluator) openCovers(qi int, s, hi int32) bool {
	return e.open[qi].coversRange(s, hi)
}

// regionLog records the regions accepted for one query node within the
// current window: starts ascending, maxEnd[i] the running maximum of the
// end labels of entries 0..i. With properly nested regions, "some entry
// with Start < s has End > s" is exactly "some accepted region contains s".
type regionLog struct {
	starts []int32
	maxEnd []int32
}

func (r *regionLog) add(l enum.Label) {
	m := l.End
	if n := len(r.maxEnd); n > 0 && r.maxEnd[n-1] > m {
		m = r.maxEnd[n-1]
	}
	r.starts = append(r.starts, l.Start)
	r.maxEnd = append(r.maxEnd, m)
}

func (r *regionLog) reset() {
	r.starts = r.starts[:0]
	r.maxEnd = r.maxEnd[:0]
}

// covers reports whether some recorded region contains position s.
func (r *regionLog) covers(s int32) bool {
	return r.coversRange(s, s+1)
}

// coversRange reports whether some recorded region overlaps (s, ...) while
// starting before hi, i.e. covers a position in [s, hi).
func (r *regionLog) coversRange(s, hi int32) bool {
	lo, up := 0, len(r.starts)
	for lo < up {
		mid := int(uint(lo+up) >> 1)
		if r.starts[mid] < hi {
			lo = mid + 1
		} else {
			up = mid
		}
	}
	return lo > 0 && r.maxEnd[lo-1] > s
}

// extendWindow is the collector's PreFlush hook: the paper's second step,
// extending the window with the query nodes removed from Q'. Each removed
// node's list is entered through the child pointer captured from its view
// parent's first in-window candidate (skipping everything before the
// window) and scanned sequentially to the window's end.
func (e *evaluator) extendWindow(lo, hi int32) {
	for _, x := range e.p.removedNodes {
		if e.extCur[x] == nil {
			engine.ResetCursor(&e.extBuf[x], e.p.lists[x], e.io, e.tr, x, e.restrict)
			e.extCur[x] = &e.extBuf[x]
		}
		cx := e.extCur[x]
		if e.hasJump[x] && !e.extJump[x].IsNil() {
			from := cx.Position()
			probe := *cx
			probe.Seek(e.extJump[x])
			if probe.Valid() && (!cx.Valid() || probe.Item().Start >= cx.Item().Start) {
				*cx = probe
				e.io.C.JumpsTaken++
				if e.tr != nil {
					l := e.p.lists[x]
					e.tr.Event(obs.EvJumpTaken, x, int64(l.PageOf(e.extJump[x])-l.PageOf(from)))
				}
			}
		}
		for cx.Valid() && cx.Item().Start < lo {
			e.io.C.Comparisons++
			cx.Next()
		}
		for ; cx.Valid() && cx.Item().Start < hi; cx.Next() {
			it := cx.Item()
			e.col.Add(x, enum.Label{Start: it.Start, End: it.End, Level: it.Level})
			e.captureExtJumps(x, it, enum.Label{Start: it.Start, End: it.End})
		}
	}
}
