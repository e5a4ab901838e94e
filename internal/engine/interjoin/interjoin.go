// Package interjoin implements the InterJoin baseline (Phillips, Zhang,
// Ilyas & Özsu, SSDBM 2006): evaluation of a path query over materialized
// path views stored in the tuple (T) scheme, possibly interleaving (§I,
// §VII of the ViewJoin paper, e.g. answering //a//b//c from //a//c and
// //b).
//
// When more than two views are needed, InterJoin runs as a sequence of
// binary joins, which is exactly the behaviour the ViewJoin paper
// criticizes: non-holistic processing can generate large useless
// intermediate results, and the tuple scheme's data redundancy (one copy of
// an element per match it participates in) inflates both I/O and join work.
// Both costs are reproduced faithfully here.
package interjoin

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"viewjoin/internal/counters"
	"viewjoin/internal/engine"
	"viewjoin/internal/match"
	"viewjoin/internal/store"
	"viewjoin/internal/tpq"
)

// partial is an intermediate tuple: bindings for a subset of the query's
// positions. Unbound positions hold the zero Label (Start == 0 is never a
// valid start label).
type partial struct {
	labels []store.Label
}

func (p *partial) bound(pos int) bool { return p.labels[pos].Start != 0 }

// stream is an intermediate relation: the covered query positions (sorted)
// and the tuples, ordered by the start label of the first covered position.
type stream struct {
	positions []int
	tuples    []partial
	arena     labelArena
}

// labelArena hands out fixed-width label rows from chunked backing arrays,
// avoiding one allocation per intermediate tuple.
type labelArena struct {
	width int
	chunk []store.Label
}

func (a *labelArena) row() []store.Label {
	if len(a.chunk) < a.width {
		n := 1024 * a.width
		a.chunk = make([]store.Label, n)
	}
	r := a.chunk[:a.width:a.width]
	a.chunk = a.chunk[a.width:]
	return r
}

// Prepared is the compile-once part of an InterJoin evaluation: the view
// streams, materialized once by scanning the tuple files, plus the join
// order. The streams are read-only during joins (binary joins write fresh
// intermediate streams), so a Prepared is safe for concurrent Run calls;
// repeated runs amortize the tuple scans that dominate InterJoin's
// per-call setup.
type Prepared struct {
	q       *tpq.Pattern
	order   []int
	streams []*stream
}

// scratches recycles the binary joins' sort and merge buffers across every
// plan, so scratch is kept per concurrent run rather than per plan.
var scratches sync.Pool // *scratch

// scratch holds the per-run sort and merge buffers of the binary joins,
// reset in place between runs.
type scratch struct {
	upIdx, loIdx, active []int
	ic                   engine.Interrupter
}

// Prepare validates the view set and materializes each view's tuple file
// as a stream. viewPos[i] lists, for view i, the query position of each of
// its nodes (in view node order). Views must be path views and q a path
// query. The scans charge io — prepare-time cost, paid once per plan.
func Prepare(q *tpq.Pattern, stores []*store.ViewStore, viewPos [][]int,
	io *counters.IO) (*Prepared, error) {
	if !q.IsPath() {
		return nil, fmt.Errorf("interjoin: %s is not a path query", q)
	}
	if len(stores) == 0 {
		return nil, fmt.Errorf("interjoin: no views")
	}
	n := q.Size()

	// Load each view's tuple file as a stream.
	streams := make([]*stream, 0, len(stores))
	for vi, s := range stores {
		if s.Tuples == nil {
			return nil, fmt.Errorf("interjoin: view %d is not stored in the tuple scheme", vi)
		}
		if s.Tuples.Arity() != len(viewPos[vi]) {
			return nil, fmt.Errorf("interjoin: view %d arity %d != %d positions", vi, s.Tuples.Arity(), len(viewPos[vi]))
		}
		if !sort.IntsAreSorted(viewPos[vi]) {
			return nil, fmt.Errorf("interjoin: view %d positions not ascending: %v", vi, viewPos[vi])
		}
		streams = append(streams, &stream{positions: viewPos[vi]})
	}
	// Join order: ascending minimal covered position, so the accumulated
	// stream always contains the topmost positions (the paper's sequence of
	// binary joins).
	order := make([]int, len(streams))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return streams[order[a]].positions[0] < streams[order[b]].positions[0]
	})

	// Materialize tuples of each view stream by scanning its tuple file.
	for vi, s := range stores {
		cur := s.Tuples.Open(io)
		st := streams[vi]
		st.arena.width = n
		st.tuples = make([]partial, 0, s.Tuples.Entries())
		for ; cur.Valid(); cur.Next() {
			p := partial{labels: st.arena.row()}
			for j, pos := range st.positions {
				p.labels[pos] = cur.Item().Labels[j]
			}
			st.tuples = append(st.tuples, p)
		}
	}
	return &Prepared{q: q, order: order, streams: streams}, nil
}

// Footprint estimates the plan-resident bytes of the materialized view
// streams. Unlike the list-file engines, InterJoin copies every view tuple
// into prepared streams at Prepare time, so its cached plans carry real
// weight: one fixed-width label row (12 bytes per query position) plus a
// slice header per tuple, beside each stream's position map.
func (p *Prepared) Footprint() int64 {
	var f int64
	for _, s := range p.streams {
		f += 24 + int64(len(s.positions))*8
		if len(s.tuples) > 0 {
			per := int64(24 + 12*len(s.tuples[0].labels))
			f += int64(len(s.tuples)) * per
		}
	}
	return f
}

// Run executes the prepared join sequence once. Per-run costs are the
// binary joins and the final verification; the view scans were charged at
// Prepare time. The peak-bytes result is always 0: InterJoin does not track
// its intermediate state.
func (p *Prepared) Run(io *counters.IO, opts engine.Options) ([][]match.Cell, int64, error) {
	sc, _ := scratches.Get().(*scratch)
	if sc == nil {
		sc = &scratch{}
	}
	sc.ic = engine.NewInterrupter(opts.Interrupt)
	q, n := p.q, p.q.Size()
	streams := p.streams
	if opts.Restrict != nil {
		streams = restrictStreams(p.streams, opts.Restrict)
	}
	acc := streams[p.order[0]]
	for _, oi := range p.order[1:] {
		if err := sc.ic.Err(); err != nil {
			scratches.Put(sc)
			return nil, 0, err
		}
		acc = binaryJoin(q, acc, streams[oi], io, sc)
	}

	// Final verification: pc-edges and the root axis. Ad-edges between
	// adjacent positions were verified during the joins (cross-view) or are
	// implied by the view matches (intra-view).
	out := engine.NewRows(q, opts.First)
	for i := range acc.tuples {
		if sc.ic.Check() != nil {
			break // reported below
		}
		t := &acc.tuples[i]
		ok := true
		if q.Nodes[0].Axis == tpq.Child && t.labels[0].Level != 0 {
			ok = false
		}
		for pos := 1; ok && pos < n; pos++ {
			if q.Nodes[pos].Axis == tpq.Child {
				io.C.Comparisons++
				if t.labels[pos].Level != t.labels[pos-1].Level+1 {
					ok = false
				}
			}
		}
		if !ok {
			continue
		}
		if opts.After != nil && !engine.AfterCursor(t.labels, opts.After) {
			continue
		}
		out.Append(t.labels)
		// Bounded accumulation under a first-k quota: InterJoin's tuples are
		// ordered by the first position only, so the scan cannot stop early;
		// keep only the first smallest rows seen so far instead, bounding
		// peak result memory to O(first). The slack (4x + 64) amortizes the
		// sorts.
		if opts.First > 0 && out.Len() >= 4*opts.First+64 {
			out.Shrink(opts.First)
		}
	}
	// Also catches an error the joins left when no tuple remains to verify.
	if err := sc.ic.Err(); err != nil {
		scratches.Put(sc)
		return nil, 0, err
	}
	scratches.Put(sc)
	// Join construction orders tuples by the accumulated stream's first
	// position only; canonicalize to full lexicographic document order, the
	// order every engine returns.
	rows := out.Sorted(opts.First)
	io.C.Matches = int64(len(rows))
	if len(rows) > 0 {
		// InterJoin cannot stream: time-to-first-match is the full
		// join+sort, stamped here so the metric reflects that honestly.
		io.MarkFirstMatch()
	}
	return rows, 0, nil
}

// restrictStreams returns per-run copies of the prepared streams holding
// only the tuples every covered position of which the restriction admits:
// spine positions keep ancestors overlapping the body after the cursor,
// every other position must start inside it. The label rows are shared
// with the prepared streams — they are read-only during joins. A path
// match binds the level below the spine inside the body and confines
// deeper positions to that binding's subtree while spine bindings contain
// it, so the filtered streams retain exactly the tuples that can
// contribute to the cursor run's matches.
func restrictStreams(streams []*stream, r *engine.Restriction) []*stream {
	out := make([]*stream, len(streams))
	for i, s := range streams {
		fs := &stream{positions: s.positions}
		for j := range s.tuples {
			t := &s.tuples[j]
			keep := true
			for _, pos := range s.positions {
				if !r.Admits(pos, t.labels[pos].Start, t.labels[pos].End) {
					keep = false
					break
				}
			}
			if keep {
				fs.tuples = append(fs.tuples, *t)
			}
		}
		out[i] = fs
	}
	return out
}

// OnlyStart reports whether query position pos has a single candidate
// binding — every tuple of the one stream covering pos binds it to the same
// node, since a stream repeats a candidate once per tuple — and returns its
// start label. A position with no tuples, or several distinct bindings, has
// no single start.
func (p *Prepared) OnlyStart(pos int) (int32, bool) {
	for _, s := range p.streams {
		if !slices.Contains(s.positions, pos) {
			continue
		}
		if len(s.tuples) == 0 {
			return 0, false
		}
		first := s.tuples[0].labels[pos]
		for i := range s.tuples {
			if s.tuples[i].labels[pos] != first {
				return 0, false
			}
		}
		return first.Start, true
	}
	return 0, false
}

// binaryJoin joins the accumulated stream a (covering the topmost
// positions) with view stream b.
//
// The join is a classic structural sort-merge driven by one cross
// predicate — a query-adjacent position pair split across the two streams
// (preferring the deepest such pair); when the coverage leaves no adjacent
// cross pair (a gap filled by a later view), the closest enclosing pair
// across the streams drives instead. Both sides are sorted by their drive
// component (intermediate tuples are not generally sorted on inner
// components — the sort is part of InterJoin's non-holistic cost), merged
// with an active window pruned by the drive containment, and every other
// adjacent cross predicate is verified per joined pair.
func binaryJoin(q *tpq.Pattern, a, b *stream, io *counters.IO, sc *scratch) *stream {
	merged := &stream{positions: mergePositions(a.positions, b.positions)}
	if len(a.tuples) == 0 || len(b.tuples) == 0 {
		return merged
	}
	merged.arena.width = len(a.tuples[0].labels)

	// Cross predicates: adjacent query positions split across the streams.
	type pred struct{ upper, lower int } // labels[lower] inside labels[upper]
	var preds []pred
	has := func(s *stream, pos int) bool {
		for _, p := range s.positions {
			if p == pos {
				return true
			}
		}
		return false
	}
	for pos := 1; pos < q.Size(); pos++ {
		inA, inB := has(a, pos), has(b, pos)
		pInA, pInB := has(a, pos-1), has(b, pos-1)
		if (inA && pInB) || (inB && pInA) {
			preds = append(preds, pred{upper: pos - 1, lower: pos})
		}
	}

	// Drive predicate: the deepest adjacent cross pair, or the enclosing
	// (anchor, b-first) pair when none is adjacent.
	var drive pred
	if len(preds) > 0 {
		drive = preds[len(preds)-1]
	} else {
		anchor := a.positions[0]
		for _, p := range a.positions {
			if p < b.positions[0] {
				anchor = p
			}
		}
		drive = pred{upper: anchor, lower: b.positions[0]}
	}
	upSide, loSide := a, b
	if has(b, drive.upper) {
		upSide = b
	}
	if has(a, drive.lower) {
		loSide = a
	}

	// Order both sides by their drive component (counted as join work).
	// Index buffers come from the run's pooled scratch.
	upIdx := sortedBy(upSide, drive.upper, io, sc.upIdx)
	sc.upIdx = upIdx
	loIdx := sortedBy(loSide, drive.lower, io, sc.loIdx)
	sc.loIdx = loIdx

	emit := func(at, bt *partial) {
		for _, pr := range preds {
			if pr == drive {
				continue
			}
			io.C.Comparisons++
			var upper, lower store.Label
			if at.bound(pr.upper) {
				upper = at.labels[pr.upper]
			} else {
				upper = bt.labels[pr.upper]
			}
			if at.bound(pr.lower) {
				lower = at.labels[pr.lower]
			} else {
				lower = bt.labels[pr.lower]
			}
			if !upper.Contains(lower) {
				return
			}
		}
		nt := partial{labels: merged.arena.row()}
		copy(nt.labels, at.labels)
		for _, pos := range b.positions {
			nt.labels[pos] = bt.labels[pos]
		}
		merged.tuples = append(merged.tuples, nt)
	}

	// Structural merge: scan descendants (lower side) in drive-start order,
	// keeping an active window of ancestor-side tuples whose drive region is
	// still open. The merge polls the run's cancellation checker: with
	// interleaving views the intermediate result can dwarf the output (the
	// §I criticism), so a deadline must be able to stop it mid-join.
	active := sc.active[:0]
	ui := 0
	for _, li := range loIdx {
		if sc.ic.Check() != nil {
			break
		}
		lt := &loSide.tuples[li]
		ls := lt.labels[drive.lower].Start
		for ui < len(upIdx) && upSide.tuples[upIdx[ui]].labels[drive.upper].Start < ls {
			active = append(active, upIdx[ui])
			ui++
		}
		keep := active[:0]
		for _, idx := range active {
			io.C.Comparisons++
			if upSide.tuples[idx].labels[drive.upper].End > ls {
				keep = append(keep, idx)
			}
		}
		active = keep
		for _, idx := range active {
			ut := &upSide.tuples[idx]
			io.C.Comparisons++
			if !ut.labels[drive.upper].Contains(lt.labels[drive.lower]) {
				continue
			}
			if upSide == a {
				emit(ut, lt)
			} else {
				emit(lt, ut)
			}
		}
	}

	sc.active = active

	// Keep the merged stream ordered by its first position's start label.
	first := merged.positions[0]
	sort.SliceStable(merged.tuples, func(i, j int) bool {
		return merged.tuples[i].labels[first].Start < merged.tuples[j].labels[first].Start
	})
	return merged
}

// sortedBy returns tuple indices of s ordered by the start label of the
// given position, charging one comparison per compare. buf, when capacious
// enough, backs the returned slice (pooled across runs).
func sortedBy(s *stream, pos int, io *counters.IO, buf []int) []int {
	idx := buf[:0]
	for i := 0; i < len(s.tuples); i++ {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(i, j int) bool {
		io.C.Comparisons++
		return s.tuples[idx[i]].labels[pos].Start < s.tuples[idx[j]].labels[pos].Start
	})
	return idx
}

// mergePositions returns the sorted union of two position sets.
func mergePositions(a, b []int) []int {
	seen := make(map[int]bool)
	var out []int
	for _, p := range a {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, p := range b {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Ints(out)
	return out
}
