// Package enum implements the shared output stage of the stack- and
// DAG-based engines: candidate solution nodes are collected into windows —
// one window per top-level query-root candidate region — and each window
// is enumerated into tree pattern instances with every edge of the original
// query verified (region containment; level labels for pc-edges, as §IV-B
// prescribes for inter-view pc-edges).
//
// This stage is the correctness firewall of the reproduction: candidate
// generation (skipping, pointer jumps, segment cursors) may over-approximate
// the solution set, but a tuple is only emitted after all of Q's edges
// check out, so spurious candidates cost time, never wrong answers.
package enum

import (
	"cmp"
	"math"
	"slices"

	"viewjoin/internal/counters"
	"viewjoin/internal/engine"
	"viewjoin/internal/match"
	"viewjoin/internal/obs"
	"viewjoin/internal/store"
	"viewjoin/internal/tpq"
)

// Label re-exports the region label triple used across engines.
type Label = store.Label

// Collector accumulates per-query-node candidates in document order and
// flushes completed windows into result rows, each one copy of the template
// row the enumeration keeps (engine.Rows).
//
// The window lives in memory until flushed; PeakEntries tracks the most
// entries held, the F_max of the paper's space analysis. An unbounded
// memory-based run holds closed windows and enumerates them together once
// they reach batchEntries entries (see batching), so it holds at most that
// many plus one window. The disk-based approach (§IV "Variations") is a
// cost-model setting: every flush charges the entries collected since the
// previous one as spooled to scratch pages and read back,
// ceil(LabelBytes·entries / store.DefaultPageSize) pages written and as
// many read, while the window itself stays in memory as in the
// memory-based approach.
type Collector struct {
	q   *tpq.Pattern
	io  *counters.IO
	tr  *obs.Recorder // nil when tracing is off
	out engine.Rows

	cands       [][]Label // per query node, current window, doc order
	windowStart int32
	windowEnd   int32
	open        bool

	entries     int // entries held: the current window and any held ones
	peakEntries int

	diskBased bool
	spoolIn   int64 // bytes spooled in the current window

	// pending buffers non-root candidates offered ahead of their window
	// (ViewJoin's bulk segment adds can run ahead of the root list); they
	// are drained into the next window that covers them.
	pending []pendingCand

	// PreFlush, when set, runs at the start of every window flush with the
	// window's region; ViewJoin uses it to extend the window with the query
	// nodes that were removed from Q' (§IV-B second step).
	PreFlush func(lo, hi int32)

	// ic, when non-nil, is the engine run's shared cooperative cancellation
	// checker; enumeration polls it so a window with a huge cross product
	// cannot outlive the request's deadline. Once it trips, flushes become
	// no-ops and the partial output is abandoned by the engine.
	ic *engine.Interrupter

	// Output bounds (SetStream): first bounds the total matches produced;
	// after is the resumption cursor (only matches strictly greater than this
	// start tuple, document order, are kept); emitted counts the rows kept;
	// stopped latches once the quota is met, turning every later Add/Flush
	// into a no-op.
	first   int
	after   []int32
	emitted int
	stopped bool

	// Partial-flush state. spine is the maximal single-child chain under
	// the query root (pattern pre-order indices 1..a, where a is the first
	// node with zero or several children); when it is non-empty, a
	// document-spanning window — every §VI query is rooted at //site, one
	// element covering the whole document — can enumerate finished
	// sub-regions before the window closes (see Advance). nextPartial is the
	// entry-count trigger for the next partial-flush attempt, grown
	// geometrically so filter work stays amortized against window growth,
	// and math.MaxInt — never — for an unbounded run or a query without a
	// spine: the trigger is Advance's only gate.
	// full is swap scratch for enumerating truncated candidate lists.
	// flushedBound is the bound of the window's latest partial flush: every
	// tuple whose bindings all start before it has already been emitted, so
	// later enumerations of the same window (candidates spanning the bound
	// are kept) skip those tuples instead of emitting them twice.
	spine        []int
	nextPartial  int
	full         [][]Label
	flushedBound int32

	// disorder is set by append when a candidate arrives out of document
	// order (pending drains, PreFlush extensions); normalize has work to do
	// only then.
	disorder bool

	// Enumeration scratch, sized by Reset and grown in place, so neither a
	// window nor a run on a warm collector allocates any. ok[qi][j] is
	// the filter's verdict on candidate j of node qi; lo[qc][j] is the offset in cands[qc] of the
	// first candidate starting after candidate j of qc's parent; stack is
	// the merge's chain of open parent candidates; at[qi] is the candidate
	// index node qi is bound to and row the tuple it spells out, one cell
	// rewritten per binding change. recheck says whether this enumeration's
	// rows must pass the flushedBound and after tests at all.
	ok      [][]bool
	lo      [][]int32
	stack   []openCand
	at      []int32
	row     []match.Cell
	recheck bool
}

// openCand is one entry of the structural merge's stack: a parent candidate
// whose region is still open, and whether a matching child has been seen
// inside it.
type openCand struct {
	j, end, level int32
	has           bool
}

type pendingCand struct {
	qi int
	l  Label
}

// LabelBytes is the scratch-record size used by the disk-based approach's
// spool accounting: one region label (12 bytes) plus the query-node tag.
const LabelBytes = 16

// batchEntries is the entry count at which a batching run (see
// Collector.batching) enumerates the windows it holds: enough for the
// per-window cost of a filter and walk to vanish against the entries they
// cover, few enough that the held lists stay in cache.
const batchEntries = 1024

// partialTrigger and partialFloor bound the step a bounded run arms its
// next partial-flush attempt with: the rows it still owes, clamped to
// [partialFloor, partialTrigger] entries, on top of 1.5x the entries that
// survived the previous attempt, so filter work stays amortized against
// growth while a page owing 20 rows does not collect 64 entries first. A
// run owing partialTrigger rows or more (vjserve's full fetch, the golden
// file's paged rows) steps by the constant. partialFloor keeps a page owing
// a row or two from attempting a flush every entry or two; it was chosen
// from one sweep (EXPERIMENTS.md, "Claimed gains").
const (
	partialTrigger = 64
	partialFloor   = 4
)

// NewCollector returns a Collector for query q, accounting into io and
// tracing into tr (nil disables tracing). When diskBased is set, every
// flush charges the disk-based approach's spool pages (see Collector).
func NewCollector(q *tpq.Pattern, io *counters.IO, tr *obs.Recorder, diskBased bool) *Collector {
	c := new(Collector)
	c.Reset(q, io, tr, diskBased)
	return c
}

// Reset readies the collector for a fresh run of query q over the same or
// another plan: the query, accounting, tracer and output options are
// rebound, collected state is cleared, and every scratch slice is resized
// in place, keeping its capacity, so a pooled collector moves between
// plans without regrowing. Rows a previous Result returned are not
// touched: their chunks belong to that caller, and this run writes fresh
// ones. PreFlush is preserved.
func (c *Collector) Reset(q *tpq.Pattern, io *counters.IO, tr *obs.Recorder, diskBased bool) {
	n := q.Size()
	c.q = q
	c.cands = engine.Fit(c.cands, n)
	c.ok = engine.Fit(c.ok, n)
	c.lo = engine.Fit(c.lo, n)
	c.at = engine.Fit(c.at, n)
	c.row = engine.Fit(c.row, n)
	c.full = engine.Fit(c.full, n)
	// The spine is the maximal single-child chain from the root: node 1..a
	// where a is the first node with zero or several children. When it is
	// empty (multi-child or leaf root), partial flushing is disabled — the
	// root's branches cross-product over the whole window, so no tuple is
	// final before the window closes.
	c.spine = c.spine[:0]
	for qi := 0; len(q.Nodes[qi].Children) == 1; {
		qi = q.Nodes[qi].Children[0]
		c.spine = append(c.spine, qi)
	}
	c.io, c.tr, c.diskBased = io, tr, diskBased
	c.ic = nil
	c.out = engine.NewRows(c.q, 0)
	c.first, c.after = 0, nil
	c.emitted, c.stopped = 0, false
	for qi := range c.cands {
		c.cands[qi] = c.cands[qi][:0]
	}
	c.pending = c.pending[:0]
	c.open = false
	c.windowStart, c.windowEnd = 0, 0
	c.entries, c.peakEntries = 0, 0
	c.spoolIn = 0
	c.nextPartial = math.MaxInt
	c.flushedBound = 0
	c.disorder = false
}

// Add offers a candidate for query node qi. Candidates for the query root
// (qi == 0) drive window management: a root candidate beyond the current
// window flushes it and opens a new one. Non-root candidates outside any
// open window cannot participate in a match and are dropped.
//
// Root candidates must be offered in document order, and a non-root
// candidate before any root candidate that starts after it: so every
// candidate of a window starts inside the window's region, which is what
// lets a batching run hold windows end to end (both engines add in the
// document order of forward-only cursors, or ahead of it).
func (c *Collector) Add(qi int, l Label) {
	if qi == 0 {
		if !c.open {
			c.openWindow(l)
			return
		}
		if l.Start > c.windowEnd {
			c.Flush()
			c.openWindow(l)
			return
		}
		c.append(0, l)
		return
	}
	if !c.open || l.Start > c.windowEnd {
		c.pending = append(c.pending, pendingCand{qi, l})
		return
	}
	c.append(qi, l)
}

func (c *Collector) openWindow(rootLabel Label) {
	c.open = true
	c.windowStart = rootLabel.Start
	c.windowEnd = rootLabel.End
	c.flushedBound = rootLabel.Start
	c.append(0, rootLabel)
	if len(c.pending) > 0 {
		keep := c.pending[:0]
		for _, p := range c.pending {
			switch {
			case p.l.Start > c.windowEnd:
				keep = append(keep, p) // still ahead: keep for a later window
			case p.l.Start > rootLabel.Start:
				c.append(p.qi, p.l)
			}
			// Candidates before this window's root can no longer be covered
			// by any root candidate and are dropped.
		}
		c.pending = keep
	}
}

func (c *Collector) append(qi int, l Label) {
	// Engines may offer the same candidate more than once (e.g. cached
	// solution nodes); collapse consecutive duplicates.
	s := c.cands[qi]
	if len(s) > 0 {
		switch last := s[len(s)-1].Start; {
		case l.Start == last:
			return
		case l.Start < last:
			c.disorder = true
		}
	}
	if len(s) == cap(s) {
		s = grow(s)
	}
	c.cands[qi] = append(s, l)
	c.entries++
	if c.diskBased {
		c.spoolIn += LabelBytes
	}
}

// grow doubles a full candidate list. A pooled collector that a collection
// has dropped regrows every list from nothing, and append's quarter steps
// would copy a document-spanning window five times over on the way. The
// first step is a quarter batch: a batching run's lists hold about
// batchEntries between them, reached in a step or two.
func grow(s []Label) []Label { return slices.Grow(s, max(len(s), batchEntries/4)) }

// AddRun offers the records of cur that start before hi as candidates for
// query node qi, and leaves cur where the loop
//
//	for ; cur.Start() < hi; cur.Next() { c.Add(qi, cur.Label()) }
//
// would, with the same candidates held. The records are one list's, in
// document order, so only the first can repeat or precede the candidate
// list's tail: the duplicate and disorder checks run once, at that seam,
// and the records inside the open window are copied a page window at a
// time (store.ListCursor.AppendBefore). Records past the window, and root
// candidates, which manage windows, go to Add.
func (c *Collector) AddRun(qi int, cur *store.ListCursor, hi int32) {
	in := hi // the records before in lie inside the open window
	if !c.open || qi == 0 {
		in = math.MinInt32
	} else if int64(c.windowEnd) < int64(hi)-1 {
		in = c.windowEnd + 1
	}
	s := c.cands[qi]
	if n := len(s); n > 0 && cur.Start() < in {
		switch last := s[n-1].Start; {
		case cur.Start() == last:
			cur.Next()
		case cur.Start() < last:
			c.disorder = true
		}
	}
	n := len(s)
	for cur.Start() < in {
		if len(s) == cap(s) {
			s = grow(s)
		}
		s = cur.AppendBefore(s, in)
	}
	c.cands[qi] = s
	c.entries += len(s) - n
	if c.diskBased {
		c.spoolIn += int64(len(s)-n) * LabelBytes
	}
	for ; cur.Start() < hi; cur.Next() {
		c.Add(qi, cur.Label())
	}
}

// SetInterrupt binds the engine run's cancellation checker; enumeration
// polls it cooperatively and records quota stops on it, so the binding is
// kept even for hookless interrupters (a hookless Check is two nil tests —
// still effectively free). Reset clears the binding, so engines rebind it
// every run.
func (c *Collector) SetInterrupt(ic *engine.Interrupter) {
	c.ic = ic
}

// SetStream configures early termination and resumption for the run (both
// cleared by Reset). first > 0 bounds the matches produced (counted after
// the cursor filter), sizes the first result chunk and arms partial
// flushing. after, when non-nil, must hold one start label per query node:
// only matches strictly greater than it in document order are kept. It is a
// row filter and nothing else: what keeps the windows before the cursor from
// being collected at all is the restriction the executor runs a cursor job
// under, which starts every list at the cursor.
func (c *Collector) SetStream(first int, after []int32) {
	c.first, c.after = first, after
	c.nextPartial = math.MaxInt
	if first > 0 && len(c.spine) > 0 {
		c.nextPartial = c.trigger()
	}
	c.out = engine.NewRows(c.q, first)
}

// Emitted returns the number of matches kept so far (after the cursor
// filter).
func (c *Collector) Emitted() int { return c.emitted }

// interrupted reports whether the run has stopped — quota met or the bound
// checker tripped (no poll — the engine loops do the polling between
// windows).
func (c *Collector) interrupted() bool {
	return c.stopped || (c.ic != nil && c.ic.Err() != nil)
}

// stop latches early termination and propagates it to the engine loops via
// the shared Interrupter, which unwinds them exactly like a cancellation;
// the engines then treat ErrStop as a successful bounded run.
func (c *Collector) stop() {
	c.stopped = true
	if c.ic != nil {
		c.ic.Stop()
	}
}

// Flush closes the current window and enumerates it — with the windows
// held before it, in a batching run, or not yet if they all hold fewer than
// batchEntries entries (Result enumerates what is still held). It is a
// no-op when no window is open or the run has been interrupted (the
// abandoned window's matches would be discarded with the rest of the
// output anyway).
func (c *Collector) Flush() {
	if !c.open || c.interrupted() {
		return
	}
	if c.PreFlush != nil {
		c.PreFlush(c.windowStart, c.windowEnd)
	}
	c.open = false
	if c.entries > c.peakEntries {
		c.peakEntries = c.entries
	}
	if c.batching() && c.entries < batchEntries {
		return
	}
	if c.diskBased && c.spoolIn > 0 {
		pages := (c.spoolIn + store.DefaultPageSize - 1) / store.DefaultPageSize
		c.io.Write(pages)         // spool the window out ...
		c.io.C.PagesRead += pages // ... and read it back for enumeration
		c.spoolIn = 0
	}
	c.emitHeld()
}

// batching reports whether the run holds closed windows — after their
// PreFlush — and enumerates them with the windows that follow once they
// hold batchEntries entries, or at Result: an unbounded memory-based run
// does. Windows are disjoint and close in ascending root order, so the held
// lists are the windows' lists end to end, and one filter and walk over
// them emits every window's rows in order and charges every counter as one
// pass per window would: a merge charges each edge its parent list, the
// walk each candidate it visits, and no walk under one window's parent
// reaches the next window's candidates. A bounded, cursor or disk-based run
// flushes every window as it closes.
func (c *Collector) batching() bool {
	return c.first <= 0 && c.after == nil && !c.diskBased
}

// emitHeld enumerates every candidate held and discards them.
func (c *Collector) emitHeld() {
	c.tr.BeginPhase(obs.PhaseEnumerate)
	c.enumerate()
	c.tr.EndPhase(obs.PhaseEnumerate)
	c.discardWindow()
}

// Advance tells the collector that every candidate the engine will Add
// from now on starts at or after frontier. Both engines pick their next
// candidate as a document-order minimum over forward-only cursors, so the
// bound is sound: any region ending before the frontier is finished.
//
// In a bounded run this may partially flush the open window. The §VI
// queries are all rooted at //site — one element spanning the whole
// document — so the collector's only window closes at end of scan and
// window-at-a-time output would produce nothing early. Partial
// flushing restores the first-k payoff: matches confined to sub-regions
// the frontier has passed are final, so they are emitted (tripping the
// quota and stopping the scan) and their candidates discarded, keeping
// the window bounded by the open regions instead of the full document.
// An accumulating full run never attempts one (see nextPartial), so its
// counters and PeakEntries are those of a run that never calls Advance.
func (c *Collector) Advance(frontier int32) {
	if c.Due() {
		c.advance(frontier)
	}
}

// Due reports whether the next Advance would attempt a partial flush, for
// an engine whose frontier costs a scan to compute.
func (c *Collector) Due() bool { return c.entries >= c.nextPartial }

func (c *Collector) advance(frontier int32) {
	if !c.open || c.interrupted() {
		return
	}
	c.partialFlush(frontier)
	c.nextPartial = c.entries + c.entries/2 + c.trigger()
}

// trigger is the step of the next partial-flush attempt (partialTrigger).
func (c *Collector) trigger() int {
	return min(partialTrigger, max(c.first-c.emitted, partialFloor))
}

// partialFlush emits the finished prefix of the open window: every match
// whose bindings all start before the partial bound (see partialBound).
// Emission reuses enumerate on prefix-truncated candidate lists — the
// bottom-up filter is exact on the truncation because a closed region's
// subtree matches only involve candidates inside it, all before the
// bound; and the ok bits it computes are final because future candidates
// cannot land inside a closed region. Candidates wholly before the bound
// are then discarded: containers reaching past it are kept, since they
// may still combine with future candidates.
func (c *Collector) partialFlush(frontier int32) {
	c.normalize()
	if len(c.cands[0]) != 1 {
		// A nested root candidate orders all its tuples after the outer
		// root's still-growing ones; emitting anything now could
		// interleave, so wait for the window to close.
		return
	}
	bound := c.partialBound(frontier)
	if c.PreFlush != nil && bound > c.windowStart {
		// Pull the removed-node candidates the emitted region needs
		// (ViewJoin's §IV-B extension); extension may reveal an earlier
		// open candidate, so re-tighten the bound afterwards.
		c.PreFlush(c.windowStart, bound)
		c.normalize()
		bound = c.partialBound(frontier)
	}
	if bound <= c.windowStart {
		return // no region has finished yet: nothing is final
	}
	if c.entries > c.peakEntries {
		c.peakEntries = c.entries
	}
	if c.diskBased && c.spoolIn > 0 {
		pages := (c.spoolIn + store.DefaultPageSize - 1) / store.DefaultPageSize
		c.io.Write(pages)
		c.io.C.PagesRead += pages
		c.spoolIn = 0
	}
	n := c.q.Size()
	for qi := 1; qi < n; qi++ {
		c.full[qi] = c.cands[qi]
		c.cands[qi] = c.cands[qi][:searchStartsAbove(c.cands[qi], bound-1)]
	}
	c.tr.BeginPhase(obs.PhaseEnumerate)
	c.enumerate()
	c.tr.EndPhase(obs.PhaseEnumerate)
	c.entries = len(c.cands[0])
	for qi := 1; qi < n; qi++ {
		list := c.full[qi]
		c.full[qi] = nil
		keep := list[:0]
		for _, l := range list {
			if l.End >= bound {
				keep = append(keep, l)
			}
		}
		c.cands[qi] = keep
		c.entries += len(keep)
	}
	if bound > c.flushedBound {
		c.flushedBound = bound
	}
}

// partialBound returns the partial-flush boundary: no future or unemitted
// match can have a binding ordering before it. Matches compare
// lexicographically by start tuple, and every binding of a match that is
// still incomplete sits inside an open (End >= frontier) candidate at
// each spine level — so the earliest open candidate of every
// multi-candidate spine level caps the bound. A spine level with a single
// candidate is skipped: all of the window's matches bind that one
// candidate, so it can never order a future match before an emitted one
// (later arrivals at that level start at or after the frontier). Branch
// nodes below the spine need no bound of their own: their candidates are
// confined to the enclosing spine-tail region, which the bound already
// proves closed.
func (c *Collector) partialBound(frontier int32) int32 {
	b := frontier
	for i, qi := range c.spine {
		list := c.cands[qi]
		// The spine tail is the pattern's first branching node: its children
		// cross-product freely inside each tail candidate (siblings join only
		// through their common tail ancestor), so no tuple inside an open
		// tail candidate is final — the earliest open candidate caps the
		// bound even when the list holds a single entry.
		branchingTail := i == len(c.spine)-1 && len(c.q.Nodes[qi].Children) > 1
		if len(list) <= 1 && !branchingTail {
			continue
		}
		for _, l := range list {
			if l.End >= frontier {
				if l.Start < b {
					b = l.Start
				}
				break // sorted by start: later open candidates start later
			}
		}
	}
	return b
}

// discardWindow clears every candidate held without enumerating them.
func (c *Collector) discardWindow() {
	for qi := range c.cands {
		c.cands[qi] = c.cands[qi][:0]
	}
	c.entries = 0
	c.spoolIn = 0
	c.open = false
	c.disorder = false
}

// Result flushes any open window, enumerates the windows still held, and
// hands over the collected rows. The Matches counter is the number of
// matches kept, which for a bounded run is the bounded count, not the
// query's full cardinality.
func (c *Collector) Result() [][]match.Cell {
	c.Flush()
	if c.entries > 0 && !c.interrupted() {
		c.emitHeld() // windows a batching run still holds
	}
	c.io.C.Matches = int64(c.emitted)
	return c.out.Take()
}

// PeakEntries returns the most entries held in memory at once — the
// |F_max| of the paper's space analysis, which is the largest window in a
// run that flushes every window, and at most batchEntries plus one window
// in a batching run — in either approach: the disk-based one charges pages
// but keeps its windows in memory too.
func (c *Collector) PeakEntries() int { return c.peakEntries }

// MemoryBytes converts PeakEntries to bytes using the scratch record size.
func (c *Collector) MemoryBytes() int64 { return int64(c.peakEntries) * LabelBytes }

// normalize restores per-list document order and uniqueness. Candidate
// lists are normally produced in document order, and append, which also
// collapses consecutive duplicates, notes when one is not (pending drains
// and PreFlush extensions may interleave); the merges in enumerate require
// sorted, duplicate-free lists.
func (c *Collector) normalize() {
	if !c.disorder {
		return
	}
	c.disorder = false
	byStart := func(a, b Label) int { return cmp.Compare(a.Start, b.Start) }
	for qi, list := range c.cands {
		if !slices.IsSortedFunc(list, byStart) {
			slices.SortFunc(list, byStart)
			c.cands[qi] = slices.CompactFunc(list, func(a, b Label) bool { return a.Start == b.Start })
		}
	}
}

// enumerate emits every embedding of q within the windows held, in time
// linear in them plus the candidates the walk visits: a bottom-up filter of
// one structural merge per query edge, then a top-down walk that copies one
// row per match out of the template.
func (c *Collector) enumerate() {
	c.normalize()
	c.recheck = c.flushedBound > c.windowStart || c.after != nil
	if c.filter() {
		c.walk()
	}
}

// filter computes ok[qi][j] — candidate j of query node qi has a full
// subtree match below it within the window — bottom-up, so that a node's
// verdicts are final before its parent's edge consults them. It returns
// false when the run was interrupted.
func (c *Collector) filter() bool {
	for qi := len(c.cands) - 1; qi >= 0; qi-- {
		list := c.cands[qi]
		ok := slices.Grow(c.ok[qi][:0], len(list))[:len(list)]
		docRoot := qi == 0 && c.q.Nodes[0].Axis == tpq.Child // "/a" binds only the document root
		for j := range ok {
			ok[j] = !docRoot || list[j].Level == 0
		}
		c.ok[qi] = ok
		for _, qc := range c.q.Nodes[qi].Children {
			if !c.merge(qi, qc) {
				return false
			}
		}
	}
	return true
}

// merge is the stack-tree structural join of one query edge (q, qc): a
// single document-order pass over both candidate lists with a stack of the
// q-candidates whose regions are open. The stack is a chain of nested
// regions, so a qc-candidate lies inside every entry: for an ad-edge it
// marks the top, and a marked entry passes its mark to the entry below when
// it pops, which reaches the whole chain without scanning it; for a
// pc-edge the parent can only be the innermost open region, so the top is
// marked iff it sits one level above the child. A q-candidate popped
// unmarked has no surviving qc-candidate below it and loses its ok bit. The
// same pass records lo[qc][j], where the walk starts under parent j. It
// returns false when the run was interrupted.
func (c *Collector) merge(q, qc int) bool {
	ps, cs := c.cands[q], c.cands[qc]
	okP, okC := c.ok[q], c.ok[qc]
	lo := slices.Grow(c.lo[qc][:0], len(ps))[:len(ps)]
	c.lo[qc] = lo
	ad := c.q.Nodes[qc].Axis == tpq.Descendant
	st := c.stack[:0]
	c.io.C.Comparisons += int64(len(ps))
	k := 0
	for j := 0; j <= len(ps); j++ {
		// The children starting no later than the next parent come first: a
		// candidate of both lists (same-tag edges) is not its own descendant.
		next := int32(math.MaxInt32)
		if j < len(ps) {
			next = ps[j].Start
		}
		for ; k < len(cs) && cs[k].Start <= next; k++ {
			if !okC[k] {
				continue
			}
			st = popClosed(st, okP, ad, cs[k].Start)
			if n := len(st); n > 0 && (ad || st[n-1].level+1 == cs[k].Level) {
				st[n-1].has = true
			}
		}
		if j == len(ps) {
			break
		}
		if c.ic != nil && c.ic.Check() != nil {
			return false
		}
		lo[j] = int32(k)
		st = popClosed(st, okP, ad, next)
		st = append(st, openCand{j: int32(j), end: ps[j].End, level: ps[j].Level})
	}
	c.stack = popClosed(st, okP, ad, math.MaxInt32)
	return true
}

// popClosed pops the entries of st whose regions end at or before pos. An
// entry popped unmarked clears its candidate's ok bit; on an ad-edge a
// marked one hands its mark to the entry below.
func popClosed(st []openCand, ok []bool, ad bool, pos int32) []openCand {
	for n := len(st); n > 0 && st[n-1].end <= pos; n-- {
		if !st[n-1].has {
			ok[st[n-1].j] = false
		} else if ad && n > 1 {
			st[n-2].has = true
		}
		st = st[:n-1]
	}
	return st
}

// walk enumerates the window's matches top-down in pattern pre-order.
//
// Order invariant: windows close in ascending root-start order, the root
// loop walks cands[0] ascending, and descend extends the tuple in pattern
// pre-order over start-sorted lists — so rows are produced exactly in
// match.RowLess (document) order, which is what makes LIMIT and the
// cursor filter exact without any buffering.
func (c *Collector) walk() {
	for j, cand := range c.cands[0] {
		if !c.ok[0][j] {
			continue
		}
		c.bind(0, j, cand)
		if !c.descend(1) {
			return
		}
	}
}

// bind makes candidate j of query node qi the node's current binding.
func (c *Collector) bind(qi, j int, l Label) {
	c.at[qi] = int32(j)
	c.row[qi] = l
}

// descend binds query nodes qi.. in turn to every consistent combination
// of surviving candidates under the bindings of nodes 0..qi-1 and emits a
// row per combination. It returns false to unwind the whole enumeration —
// cancellation or quota met.
func (c *Collector) descend(qi int) bool {
	if qi == len(c.row) {
		return c.emitRow() // a one-node pattern: the root's binding is the row
	}
	p, pc := c.q.Nodes[qi].Parent, c.q.Nodes[qi].Axis == tpq.Child
	end, level := c.row[p].End, c.row[p].Level+1
	list, ok := c.cands[qi], c.ok[qi]
	first := int(c.lo[qi][c.at[p]])
	k, more := first, true
	if qi+1 < len(c.row) {
		for ; more && k < len(list) && list[k].Start < end; k++ {
			if ok[k] && (!pc || list[k].Level == level) {
				c.bind(qi, k, list[k])
				more = c.descend(qi + 1)
			}
		}
	} else if c.first <= 0 && !c.recheck {
		// The last node in pre-order, in a run that neither stops at a quota
		// nor filters its rows: every candidate it binds is a row to keep,
		// written here without an emitRow call each. The checker is polled
		// per row, as emitRow polls it.
		ic, emitted := c.ic, c.emitted
		for ; k < len(list) && list[k].Start < end; k++ {
			if ok[k] && (!pc || list[k].Level == level) {
				if ic != nil && ic.Check() != nil {
					more = false
					k++ // visited, as the emitRow loop counts it
					break
				}
				if emitted == 0 {
					c.io.MarkFirstMatch()
				}
				c.row[qi] = list[k]
				c.out.Append(c.row)
				emitted++
			}
		}
		c.emitted = emitted
	} else {
		// The last node in pre-order: every candidate it binds completes a
		// row, and nothing below reads its index.
		for ; more && k < len(list) && list[k].Start < end; k++ {
			if ok[k] && (!pc || list[k].Level == level) {
				c.row[qi] = list[k]
				more = c.emitRow()
			}
		}
	}
	c.io.C.Comparisons += int64(k - first) // one per candidate visited
	return more
}

// emitRow delivers the template row as one match, unless a filter of this
// run says it was delivered before. It polls the cancellation checker: a
// window whose cross product explodes must still honour the request
// deadline (the §IV space analysis bounds the window, not its enumeration).
func (c *Collector) emitRow() bool {
	if c.ic != nil && c.ic.Check() != nil {
		return false
	}
	if c.recheck {
		if c.flushedBound > c.windowStart && c.rowBefore(c.flushedBound) {
			return true // already emitted by an earlier partial flush
		}
		if c.after != nil && !engine.AfterCursor(c.row, c.after) {
			return true // at or before the resumption cursor: skip
		}
	}
	c.io.MarkFirstMatch()
	c.out.Append(c.row)
	c.emitted++
	if c.first > 0 && c.emitted >= c.first {
		c.stop()
		return false
	}
	return true
}

// rowBefore reports whether every binding of the current row starts before
// b. Such a tuple was fully enumerable at the partial flush whose bound was
// b — every binding was present (Advance guarantees future adds start at or
// after the frontier, and b never exceeds it) and its ok bits held (each
// node's subtree requirement is witnessed by the tuple's own child
// bindings, all before b) — so it was emitted then.
func (c *Collector) rowBefore(b int32) bool {
	for k := range c.row {
		if c.row[k].Start >= b {
			return false
		}
	}
	return true
}

// searchStartsAbove returns the index of the first candidate with
// Start > s: where partialFlush cuts each list at its bound.
func searchStartsAbove(list []Label, s int32) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid].Start <= s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
