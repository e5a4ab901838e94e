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
	"slices"
	"sync"

	"viewjoin/internal/counters"
	"viewjoin/internal/engine"
	"viewjoin/internal/engine/enum"
	"viewjoin/internal/match"
	"viewjoin/internal/obs"
	"viewjoin/internal/store"
	"viewjoin/internal/vsq"
)

// Prepared is the compile-once part of a ViewJoin evaluation: the bound
// lists and the inverse view maps. A Prepared is immutable after
// construction and safe for concurrent Run calls; each Run takes an
// evaluator from the package's pool (or allocates a fresh one), binds it
// to the plan and returns it afterwards, so repeated runs pay for cursor
// movement and enumeration only — the costs the paper's §V model charges
// — not for setup.
type Prepared struct {
	engine.Lists // per query node; also answers the partition planner
	v            *vsq.VSQ

	// node[qi] is what the join loop reads of qi; adj holds the query nodes
	// its spans list.
	node []nodePlan
	adj  []int

	primeNodes   []int // cached v.PrimeNodes()
	removedNodes []int // cached v.RemovedNodes()
}

// nodePlan is what the join loop reads of one query node, kept flat in the
// plan so that a per-record step reaches it with one index rather than
// through the segment tables of Q'.
type nodePlan struct {
	role nodeRole
	// primeParent is the node's parent in Q' (vsq.VSQ.PrimeParent), -1 for
	// the query root and for nodes removed from Q'.
	primeParent int32
	// viewParent is the query node of the node's parent within its view, -1
	// when the node is a view root; viewSlot is the node's child-pointer slot
	// in that parent's records.
	viewParent, viewSlot int32
	// members are the other nodes of the segment the node roots (empty
	// unless it roots a segment of several nodes); removed are the removed
	// query nodes whose view parent it is (extension targets).
	members, removed span
}

// span is the range [lo, hi) of Prepared.adj.
type span struct{ lo, hi int32 }

// nodes returns the query nodes s lists.
func (p *Prepared) nodes(s span) []int { return p.adj[s.lo:s.hi] }

// nodeRole is a set of the per-record duties of one query node in the join
// loop, fixed by Q' and its views at Prepare time.
type nodeRole uint8

const (
	// segRoot: the node roots its segment; its admission is checked against
	// its prime parent's regions and bulk-adds the segment's other members.
	segRoot nodeRole = 1 << iota
	// logsRegions: some coversRange reads the node's region log, because it
	// is the prime parent of a segment root or the view parent of a prime
	// node. Nobody reads any other node's log, so no other node keeps one.
	logsRegions
	// extParent: the node is the view parent of a removed node, so each of
	// its in-window candidates captures a child pointer for the extension.
	extParent
)

// evaluators recycles evaluator scratch across every plan: an evaluator
// serves one plan for one run (bind), so scratch is kept per concurrent
// run rather than per plan, and a collection releases it as it does any
// sync.Pool's.
var evaluators sync.Pool // *evaluator

// segStep is one segment as getNext visits it.
type segStep struct {
	nodes  []int // the segment's query nodes
	root   int   // its root, whose cursor is aligned against parent's
	parent int   // the root's parent in Q', in the segment above
	up     int   // that segment's index in steps; -1 for the root segment
	// The frontier the child segments have handed up so far in the current
	// getNext call: a query node and the start its cursor stands on; none
	// (-1, +inf) between calls.
	best      int
	bestStart int32
}

type evaluator struct {
	p  *Prepared
	io *counters.IO
	c  *counters.Counters // io.C

	// cur[qi] is qi's list cursor, reset in place per run. A node removed
	// from Q' holds an exhausted one: no merge step picks it, and as a view
	// parent it has no child pointer to jump through.
	cur []store.ListCursor
	col *enum.Collector
	// extend is extendWindow as a method value, made once per evaluator and
	// installed as the collector's PreFlush by plans with removed nodes.
	extend func(lo, hi int32)
	// steps lists the segments children first, each child subtree in its
	// parent's child order and the root segment last: the order in which a
	// recursion over segments finishes them, which getNext walks as a loop.
	steps []segStep

	// open[qi] logs the accepted regions of qi in the current window, in
	// ascending start order (each node's admissions follow its own cursor),
	// with a prefix maximum of the end labels for O(log n) containment
	// checks; only a node whose role has logsRegions keeps one. This plays
	// the role of the paper's "has a p-type ancestor in F" test (Function 3
	// line 12): unlike a pop-on-push stack it tolerates the
	// out-of-document-order admissions that bulk segment adds produce.
	open []regionLog

	// Window-extension state: ext[x] is removed node x's cursor, opened by
	// the first window that extends to it (extOpen) and kept across windows;
	// extJump holds, per removed node, the smallest child pointer captured
	// from the in-window candidates of its view parent, nil for none.
	ext     []store.ListCursor
	extOpen []bool
	extJump []store.Pointer

	// extLo is the window start the extension last ran for, -1 before the
	// first. While it is the current window's (a partial flush ran), every
	// extension cursor stands on the record it landed on last, past each
	// record it added; a captured pointer at or behind that record would
	// only read it again, so the next extension of the window keeps it.
	extLo int32

	// winEnd is where the current window of query-root regions ends, -1
	// before the first one opens.
	winEnd int32

	// ic is the run's cooperative cancellation checker, polled from the
	// main loop and shared with the collector's enumeration stage.
	ic engine.Interrupter

	// restrict is the run's partition restriction (nil = whole document);
	// kept so the lazily-opened extension cursors bind to the same list
	// slice as the prime cursors.
	restrict *engine.Restriction
}

// Prepare compiles the view-segmented query against the element-family
// stores of its views: lists are bound and the inverse view maps computed
// once, ready for any number of Run calls.
func Prepare(v *vsq.VSQ, stores []*store.ViewStore, tr *obs.Recorder) (*Prepared, error) {
	tr.BeginPhase(obs.PhaseBind)
	lists, err := engine.BindLists(v, stores)
	tr.EndPhase(obs.PhaseBind)
	if err != nil {
		return nil, fmt.Errorf("viewjoin: %w", err)
	}
	n := v.Query.Size()
	p := &Prepared{
		v:     v,
		Lists: lists,
		node:  make([]nodePlan, n),
		// A node is a member of one segment or removed with one view
		// parent, or neither: the spans list n nodes at most.
		adj:          make([]int, 0, n),
		primeNodes:   v.PrimeNodes(),
		removedNodes: v.RemovedNodes(),
	}
	p.buildViewMaps()
	for qi := range p.node {
		np := &p.node[qi]
		np.primeParent = -1
		np.removed.lo = int32(len(p.adj))
		for _, x := range p.removedNodes {
			if int(p.node[x].viewParent) == qi {
				p.adj = append(p.adj, x)
			}
		}
		if np.removed.hi = int32(len(p.adj)); np.removed.hi > np.removed.lo {
			np.role |= extParent
		}
	}
	for _, qi := range p.primeNodes {
		np := &p.node[qi]
		pp := v.PrimeParent[qi]
		np.primeParent = int32(pp)
		if seg := v.Segments[v.SegOf[qi]]; seg.Root == qi {
			np.role |= segRoot
			// A segment lists its root first.
			np.members.lo = int32(len(p.adj))
			p.adj = append(p.adj, seg.Nodes[1:]...)
			np.members.hi = int32(len(p.adj))
			if pp != -1 {
				p.node[pp].role |= logsRegions
			}
		}
		if vp := np.viewParent; vp != -1 {
			p.node[vp].role |= logsRegions
		}
	}
	return p, nil
}

// Footprint estimates the plan-resident bytes beyond the shared document
// and view stores: the per-query-node segmentation tables built at
// Prepare time plus the list bindings. Evaluator scratch belongs to the
// package's pool, not to the plan.
func (p *Prepared) Footprint() int64 {
	f := int64(len(p.node))*nodePlanBytes + int64(cap(p.adj))*8
	f += int64(len(p.primeNodes)+len(p.removedNodes)) * 8
	return f + int64(len(p.Lists))*8
}

// nodePlanBytes is the size of a nodePlan: the role and three int32s, then
// two spans.
const nodePlanBytes = 16 + 16

// Run executes the prepared plan once: evaluator scratch state (cursors,
// region logs, collector buffers, extension state) comes from the pool, is
// bound to p and reset in place, so a warm Run allocates only for the
// output. Beside the rows it returns the peak bytes of window state held
// (|F_max|).
func (p *Prepared) Run(io *counters.IO, opts engine.Options) ([][]match.Cell, int64, error) {
	e, _ := evaluators.Get().(*evaluator)
	if e == nil {
		e = newEvaluator()
	}
	e.bind(p)
	e.reset(io, opts)
	e.run()
	// Result enumerates the windows still held, so an interrupt can trip
	// inside it too: the error is read after it.
	out, peak, err := e.col.Result(), e.col.MemoryBytes(), e.ic.Err()
	evaluators.Put(e)
	if err != nil && err != engine.ErrStop {
		// Interrupted: abandon the partial output. The evaluator went back
		// to the pool all the same — bind and reset clear every piece of
		// scratch on reuse.
		return nil, 0, err
	}
	// ErrStop is the collector's output quota tripping, not a failure: the
	// bounded output collected so far is the answer.
	return out, peak, nil
}

// Eval evaluates the view-segmented query's underlying query over the
// element-family stores of its views and returns all tree pattern
// instances of the original query (one-shot Prepare + Run).
func Eval(v *vsq.VSQ, stores []*store.ViewStore, io *counters.IO,
	opts engine.Options) ([][]match.Cell, int64, error) {
	p, err := Prepare(v, stores, opts.Tracer)
	if err != nil {
		return nil, 0, err
	}
	return p.Run(io, opts)
}

// newEvaluator allocates one pooled evaluator; bind sizes its scratch for
// a plan on every use.
func newEvaluator() *evaluator {
	e := &evaluator{col: new(enum.Collector)}
	e.extend = e.extendWindow
	return e
}

// bind re-binds the evaluator to plan p: every per-query-node slice is
// resized in place, keeping capacity, the collector's window extension is
// switched on for a Q' with removed nodes, and the segment steps are
// rebuilt for p's Q'.
func (e *evaluator) bind(p *Prepared) {
	n := p.v.Query.Size()
	e.p = p
	e.cur = engine.Fit(e.cur, n)
	e.open = engine.Fit(e.open, n)
	e.ext = engine.Fit(e.ext, n)
	e.extOpen = engine.Fit(e.extOpen, n)
	e.extJump = engine.Fit(e.extJump, n)
	e.col.PreFlush = nil
	if len(p.removedNodes) > 0 {
		e.col.PreFlush = e.extend
	}
	e.steps = e.steps[:0]
	e.addSteps(p.v.RootSegment(), -1)
}

// addSteps appends segment b's subtree to e.steps, children first; parent
// is b's root's parent in Q'.
func (e *evaluator) addSteps(b *vsq.Segment, parent int) {
	first := len(e.steps)
	for _, id := range b.Children {
		bs := e.p.v.Segments[id]
		e.addSteps(bs, e.p.v.PrimeParent[bs.Root])
	}
	at := len(e.steps)
	e.steps = append(e.steps, segStep{nodes: b.Nodes, root: b.Root, parent: parent, up: -1, best: -1, bestStart: maxInt32})
	for k := first; k < at; k++ {
		if e.steps[k].up == -1 { // a child's step: deeper ones already point up
			e.steps[k].up = at
		}
	}
}

// reset rebinds the per-run accounting and options and clears every piece
// of scratch state, keeping capacity.
func (e *evaluator) reset(io *counters.IO, opts engine.Options) {
	e.io, e.c = io, io.C
	e.restrict = opts.Restrict
	e.ic = engine.NewInterrupter(opts.Interrupt)
	e.col.Reset(e.p.v.Query, io, opts.Tracer, opts.DiskBased)
	e.col.SetInterrupt(&e.ic)
	e.col.SetStream(opts.First, opts.After)
	e.winEnd, e.extLo = -1, -1
	for _, qi := range e.p.primeNodes {
		engine.ResetCursor(&e.cur[qi], e.p.Lists[qi], io, qi, opts.Restrict)
	}
	for _, x := range e.p.removedNodes {
		e.cur[x].ResetRange(e.p.Lists[x], io, 0, 0)
	}
	for i := range e.open {
		e.open[i] = e.open[i][:0]
		e.extOpen[i] = false
		e.extJump[i] = store.NilPointer
	}
}

// buildViewMaps precomputes, for every query node, its view parent's query
// node and its child-pointer slot.
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
		np := &p.node[qi]
		if pn == -1 {
			np.viewParent, np.viewSlot = -1, -1
			continue
		}
		np.viewParent = int32(inv[vi][pn])
		for ci, c := range view.Nodes[pn].Children {
			if c == ni {
				np.viewSlot = int32(ci)
				break
			}
		}
	}
}

// run is the paper's Algorithm 1 main loop: pull the next solution node in
// document order from the root segment, add it (and its segment's aligned
// members) to the window DAG, and let the collector flush windows.
func (e *evaluator) run() {
	for {
		if e.ic.Check() != nil {
			return
		}
		qi := e.getNext()
		if qi == -1 {
			break
		}
		// getNext returns the minimum-start valid cursor and cursors only
		// move forward, so its start is a sound frontier for the collector's
		// partial flushes: every future add — including bulk segment members,
		// which copy current cursor items — starts at or after it. (Extension
		// candidates are pulled synchronously inside the flush via PreFlush,
		// so they never violate the bound.)
		e.col.Advance(e.cur[qi].Start())
		e.process(qi)
	}
}

// process accepts or rejects the current entry of qi and advances its
// cursor. Segment roots are checked against their inter-view parent's open
// regions; members are trusted (their joins are precomputed in the view).
func (e *evaluator) process(qi int) {
	cur := &e.cur[qi]
	l := cur.Label()
	np := &e.p.node[qi]
	if np.primeParent >= 0 && np.role&segRoot != 0 {
		e.c.Comparisons++
		if !e.open[np.primeParent].coversRange(l.Start, l.Start+1) {
			cur.Next()
			return
		}
	}
	e.admit(qi, cur)
	if np.members.hi > np.members.lo {
		e.bulkAddMembers(e.p.nodes(np.members), l)
	}
	cur.Next()
}

// admit pushes an accepted candidate: window bookkeeping for the query
// root, open-region stacks, the collector, and extension-jump capture.
func (e *evaluator) admit(qi int, cur *store.ListCursor) {
	l := cur.Label()
	if qi == 0 {
		if l.Start > e.winEnd {
			e.winEnd = l.End
			for i := range e.extJump {
				e.extJump[i] = store.NilPointer
				e.open[i] = e.open[i][:0]
			}
		}
	}
	role := e.p.node[qi].role
	if role&logsRegions != 0 {
		e.open[qi].add(l)
	}
	e.col.Add(qi, l)
	if role&extParent != 0 {
		e.captureExtJumps(qi, cur)
	}
}

// captureExtJumps records, per window, the minimal child pointer from qi's
// in-window candidates toward each of its removed view children. The
// minimum over all parents is a lower bound on every extension-relevant
// entry (a single parent's pointer is not: with pc-edges, a nested parent's
// child can precede the first parent's first child). Pointers are record
// offsets, so their order coincides with list order within one file and
// the minimum is computable without dereferencing. cur is qi's cursor, on
// the candidate.
func (e *evaluator) captureExtJumps(qi int, cur *store.ListCursor) {
	if cur.Start() > e.winEnd {
		return
	}
	for _, x := range e.p.nodes(e.p.node[qi].removed) {
		ptr := cur.Child(int(e.p.node[x].viewSlot))
		if ptr.IsNil() {
			continue // E scheme: no pointers; extension scans sequentially
		}
		if e.extJump[x].IsNil() || ptr < e.extJump[x] {
			e.extJump[x] = ptr
		}
	}
}

// bulkAddMembers is the paper's addNodes: when a segment root is accepted,
// the current cursor entries of the segment's other members that fall
// inside the root's region are solution candidates by the precomputed view
// joins; add them all without structural comparisons and advance their
// cursors.
func (e *evaluator) bulkAddMembers(members []int, rootL enum.Label) {
	for _, m := range members {
		// An exhausted member starts at +inf, outside every region.
		cur := &e.cur[m]
		if s := cur.Start(); s > rootL.Start && s < rootL.End {
			e.admit(m, cur)
			cur.Next()
		}
	}
}

// getNext is the paper's Function 3 lifted to this implementation: it
// visits the segments bottom-up, aligns each child segment root against
// its inter-view parent (skipping provably useless entries on both sides
// via pointers), and returns the frontier node — the valid cursor with the
// smallest start among the root segment's members and what its child
// segments handed up, each the frontier of its own subtree — or -1 when
// everything is drained. Exhausted cursors start at +inf, so the minimum
// passes over them unasked. Ties go to the child segments, in order, then
// to the segment's own nodes in pre-order.
func (e *evaluator) getNext() int {
	for i := range e.steps {
		st := &e.steps[i]
		best, bestStart := st.best, st.bestStart
		st.best, st.bestStart = -1, maxInt32
		for _, qi := range st.nodes {
			if s := e.cur[qi].Start(); s < bestStart {
				best, bestStart = qi, s
			}
		}
		if st.up < 0 {
			return best
		}
		// A root whose head starts inside its parent's head has nothing to
		// skip on either side, which align would find out one call later.
		if rs, cp := e.cur[st.root].Start(), &e.cur[st.parent]; rs < cp.Start() || rs > cp.End() || rs == maxInt32 {
			e.align(st.root, st.parent)
		}
		// The alignment may have moved the root's cursor, or exhausted the
		// frontier's: hand up the root's current position unless a deeper
		// frontier stands.
		if best == -1 || !e.cur[best].Valid() {
			best = st.root
		}
		if up, s := &e.steps[st.up], e.cur[best].Start(); s < up.bestStart {
			up.best, up.bestStart = best, s
		}
	}
	return -1
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
func (e *evaluator) align(rs, p int) {
	for {
		if e.ic.Check() != nil {
			return
		}
		rsStart := e.cur[rs].Start()
		if rsStart == maxInt32 {
			// No further rs candidates: remaining p entries can only start
			// after every collected rs candidate, so they are useless too.
			e.advancePointers(p, maxInt32)
			return
		}
		cp := &e.cur[p]
		if cp.Valid() && rsStart < cp.Start() && !e.open[p].coversRange(rsStart, rsStart+1) {
			e.c.Comparisons++
			// rs's current entry is a non-solution. Where rs's view parent's
			// cursor is already ahead, its child pointer skips the whole run
			// of dead entries at once (the paper's advantage (2), §III-B);
			// otherwise advance sequentially.
			if !e.jumpViaViewParent(rs) {
				e.cur[rs].Next()
			}
			continue
		}
		if cp.End() < rsStart { // never an exhausted p: it ends at +inf
			e.c.Comparisons++
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
	vp := int(e.p.node[m].viewParent)
	if vp == -1 || !e.cur[vp].Valid() {
		return false
	}
	mStart := e.cur[m].Start()
	vpStart := e.cur[vp].Start()
	if mStart >= vpStart {
		return false
	}
	if e.open[vp].coversRange(mStart, vpStart) {
		e.c.JumpsRefused++
		return false
	}
	ptr := e.cur[vp].Child(int(e.p.node[m].viewSlot))
	if ptr.IsNil() {
		return false
	}
	probe := e.cur[m]
	probe.Seek(ptr)
	if probe.Start() <= mStart {
		e.c.JumpsRefused++
		return false // stale/backward pointer: fall back to sequential
	}
	e.cur[m] = probe
	e.c.JumpsTaken++
	return true
}

const maxInt32 = int32(1<<31 - 1)

// advancePointers advances p's cursor past every entry that ends before
// target, following materialized following pointers where the jump is
// provably safe, then repositions p's in-segment descendants.
func (e *evaluator) advancePointers(p int, target int32) {
	moved := false
	cur := &e.cur[p]
	for cur.End() < target { // an exhausted cursor ends at +inf
		if e.ic.Check() != nil {
			return
		}
		e.c.Comparisons++
		jumped := false
		if following := cur.Following(); !following.IsNil() {
			probe := *cur // stack copy: probing must not disturb the cursor
			probe.Seek(following)
			safe := !e.p.Lists[p].Scoped() || target == maxInt32 ||
				(probe.Valid() && probe.Start() <= target)
			if safe {
				*cur = probe
				jumped = true
				e.c.JumpsTaken++
			} else {
				e.c.JumpsRefused++
			}
		}
		if !jumped {
			cur.Next()
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
	if !e.cur[p].Valid() {
		return
	}
	pStart := e.cur[p].Start()
	for _, m := range e.p.primeNodes {
		if int(e.p.node[m].viewParent) != p {
			continue
		}
		// An exhausted member starts at +inf: nothing left to reposition.
		cm := &e.cur[m]
		if cm.Start() >= pStart {
			continue
		}
		if e.open[p].coversRange(cm.Start(), pStart) {
			continue
		}
		if ptr := e.cur[p].Child(int(e.p.node[m].viewSlot)); !ptr.IsNil() {
			probe := *cm
			probe.Seek(ptr)
			// Forward jumps only; a stale pointer behind the cursor would
			// rewind and re-add entries. (An exhausted probe is past it.)
			if probe.Start() > cm.Start() {
				*cm = probe
				e.c.JumpsTaken++
			} else {
				e.c.JumpsRefused++
			}
		} else {
			for cm.Start() < pStart && !e.open[p].coversRange(cm.Start(), pStart) {
				e.c.Comparisons++
				cm.Next()
			}
		}
		e.repositionMembers(m)
	}
}

// regionLog records the regions accepted for one query node within the
// current window: starts ascending, each with the running maximum of the
// end labels up to it. With properly nested regions, "some entry with
// Start < s has End > s" is exactly "some accepted region contains s".
type regionLog []struct{ start, maxEnd int32 }

func (r *regionLog) add(l enum.Label) {
	log := *r
	m := l.End
	if n := len(log); n > 0 && log[n-1].maxEnd > m {
		m = log[n-1].maxEnd
	}
	if len(log) == cap(log) {
		log = slices.Grow(log, max(len(log), 64)) // double, as the collector's lists do
	}
	*r = append(log, struct{ start, maxEnd int32 }{l.Start, m})
}

// coversRange reports whether some recorded region overlaps (s, ...) while
// starting before hi, i.e. covers a position in [s, hi): if so, entries at
// s may still pair with an accepted ancestor and must not be skipped.
// The checks in process and align almost always ask at the log's tail:
// when no entry starts at or after hi, the answer is the last running
// maximum, without a search.
func (r regionLog) coversRange(s, hi int32) bool {
	n := len(r)
	if n == 0 {
		return false
	}
	if r[n-1].start < hi {
		return r[n-1].maxEnd > s
	}
	lo, up := 0, n
	for lo < up {
		mid := int(uint(lo+up) >> 1)
		if r[mid].start < hi {
			lo = mid + 1
		} else {
			up = mid
		}
	}
	return lo > 0 && r[lo-1].maxEnd > s
}

// extendWindow is the collector's PreFlush hook: the paper's second step,
// extending the window with the query nodes removed from Q'. Each removed
// node's list is entered through the child pointer captured from its view
// parent's first in-window candidate (skipping everything before the
// window) and its records inside the window are taken: as one run copy
// (Collector.AddRun), or record by record for a node whose own candidates
// capture pointers toward removed children of its own. A bounded run
// extends one window once per partial flush (hi is the flush's bound);
// from the second time on, each cursor resumes from the record it landed
// on and follows a captured pointer only when it leads past that record.
func (e *evaluator) extendWindow(lo, hi int32) {
	landed := lo == e.extLo
	e.extLo = lo
	for _, x := range e.p.removedNodes {
		cx := &e.ext[x]
		if !e.extOpen[x] {
			engine.ResetCursor(cx, e.p.Lists[x], e.io, x, e.restrict)
			e.extOpen[x] = true
		}
		if ptr := e.extJump[x]; !ptr.IsNil() && (!landed || ptr > cx.Position()) {
			probe := *cx
			probe.Seek(ptr)
			if probe.Valid() && (!cx.Valid() || probe.Start() >= cx.Start()) {
				*cx = probe
				e.c.JumpsTaken++
			}
		}
		for cx.Start() < lo { // lo, hi <= +inf, where an exhausted cursor starts
			e.c.Comparisons++
			cx.Next()
		}
		if e.p.node[x].role&extParent == 0 {
			e.col.AddRun(x, cx, hi)
			continue
		}
		for ; cx.Start() < hi; cx.Next() {
			e.col.Add(x, cx.Label())
			e.captureExtJumps(x, cx)
		}
	}
}
