package viewjoin

import (
	"viewjoin/internal/engine"
	"viewjoin/internal/match"
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
// when k <= 1 or the query cannot be usefully partitioned — the executor
// then runs one whole-document job, so partitioning degrades but never
// errors.
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
	blobs := engine.MergeSpans(p.plan.AnchorSpans(b))
	if len(blobs) <= 1 {
		return nil
	}
	chunks := engine.CoalesceSpans(blobs, func(s engine.Span) int64 {
		return p.plan.WeightIn(s.Lo, s.Hi)
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

// resumePrefix walks the query's unary spine from the root while the node
// has exactly one child, laid out next in pre-order, and only reports that
// the plan's list for it holds a single candidate; it returns those
// candidates' start labels. Every match binds these levels to them, so a
// match after a cursor row that agrees with the prefix binds the level b
// below it at or after the row's b-th label, and every deeper node inside
// that binding: a cursor run starts there (runJob). An empty prefix — the
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

// runPartitions executes the partition jobs, one goroutine each (the
// planner never returns more jobs than the parallelism asked for), and
// returns their outcomes once all have finished. The jobs share nothing —
// under a limit each stops at the page's quota on its own (runJob) — so
// what one scans never depends on when another finishes.
func (p *PreparedQuery) runPartitions(jobs []engine.Restriction, interrupt func() error, o RunOptions) []jobOut {
	o.Tracer = nil // a Recorder is not safe for concurrent use
	outs := make([]jobOut, len(jobs))
	parallelFor(len(jobs), len(jobs), func(i int) {
		outs[i] = p.runJob(&jobs[i], interrupt, &o)
	})
	return outs
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
