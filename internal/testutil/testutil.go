// Package testutil provides deterministic random generators for documents,
// tree pattern queries, and covering view sets, shared by the property
// tests that validate every evaluation engine against the brute-force
// oracle.
package testutil

import (
	"fmt"
	"math/rand"

	"viewjoin/internal/tpq"
	"viewjoin/internal/xmltree"
)

// Labels is the default element vocabulary used by random documents.
var Labels = []string{"a", "b", "c", "d", "e", "f", "g", "h"}

// RootLabel is the label of every random document's root.
const RootLabel = "root"

// ByteSource is a rand.Source64 that replays a fixed byte string, letting
// fuzz targets drive the package's random generators directly from fuzzer
// input: every generated document/query/view partition is a deterministic
// function of the bytes, so the fuzzer's corpus mutations explore the
// generator space. Once the bytes run out it falls back to a splitmix64
// stream seeded from them, so short inputs still yield full structures.
type ByteSource struct {
	data []byte
	pos  int
	seq  uint64
}

// NewByteRand returns a *rand.Rand drawing from data.
func NewByteRand(data []byte) *rand.Rand {
	s := &ByteSource{data: data}
	for _, b := range data {
		s.seq = s.seq*1099511628211 + uint64(b)
	}
	return rand.New(s)
}

func (s *ByteSource) Uint64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		var b byte
		if s.pos < len(s.data) {
			b = s.data[s.pos]
			s.pos++
		} else {
			// splitmix64 step on the exhausted tail.
			s.seq += 0x9e3779b97f4a7c15
			z := s.seq
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			b = byte(z ^ (z >> 31))
		}
		v = v<<8 | uint64(b)
	}
	return v
}

func (s *ByteSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed is a no-op; a ByteSource's stream is fixed by its data.
func (s *ByteSource) Seed(int64) {}

// DocShape bounds a generated document: at most MaxNodes elements below
// the root, nesting at most MaxDepth levels deep (root is level 0), and at
// most MaxFanout children under any one element. Zero or negative fields
// fall back to the stated defaults.
type DocShape struct {
	MaxNodes  int // default 60
	MaxDepth  int // default 10
	MaxFanout int // default unbounded (limited only by MaxNodes)
}

func (s DocShape) withDefaults() DocShape {
	if s.MaxNodes <= 0 {
		s.MaxNodes = 60
	}
	if s.MaxDepth <= 0 {
		s.MaxDepth = 10
	}
	return s
}

// RandomDoc builds a random document of up to maxNodes elements drawn from
// the given label vocabulary (Labels when labels is nil). The root is always
// labelled "root" so that every other label can appear at any depth.
func RandomDoc(rng *rand.Rand, maxNodes int, labels []string) *xmltree.Document {
	return RandomDocShaped(rng, DocShape{MaxNodes: maxNodes}, labels)
}

// RandomDocShaped builds a random document within the stated shape bounds,
// drawing element labels from labels (Labels when nil). The root is always
// labelled "root" so that every other label can appear at any depth. The
// generator is deterministic in rng, so a fixed seed reproduces the
// document exactly.
func RandomDocShaped(rng *rand.Rand, shape DocShape, labels []string) *xmltree.Document {
	if labels == nil {
		labels = Labels
	}
	shape = shape.withDefaults()
	b := xmltree.NewBuilder()
	budget := 1 + rng.Intn(shape.MaxNodes)
	b.Begin(RootLabel)
	var rec func(depth int)
	rec = func(depth int) {
		fanout := 0
		for budget > 0 && depth < shape.MaxDepth && rng.Intn(3) != 0 {
			if shape.MaxFanout > 0 && fanout >= shape.MaxFanout {
				return
			}
			fanout++
			budget--
			b.Begin(labels[rng.Intn(len(labels))])
			rec(depth + 1)
			b.End()
		}
	}
	rec(1)
	b.End()
	return b.MustDocument()
}

// ForeignLabels is a vocabulary disjoint from Labels: fragments drawn from
// it never intersect a view alphabet built over Labels, forcing the
// maintenance fast path (pure label splice).
var ForeignLabels = []string{"x", "y", "z"}

// RandomFragment builds a random self-contained subtree of up to maxNodes
// elements for use as update-fragment input: unlike RandomDoc, the root
// label is drawn from the vocabulary too.
func RandomFragment(rng *rand.Rand, maxNodes int, labels []string) *xmltree.Document {
	if labels == nil {
		labels = Labels
	}
	b := xmltree.NewBuilder()
	budget := rng.Intn(maxNodes)
	var rec func(depth int)
	rec = func(depth int) {
		for budget > 0 && depth < 6 && rng.Intn(3) != 0 {
			budget--
			b.Begin(labels[rng.Intn(len(labels))])
			rec(depth + 1)
			b.End()
		}
	}
	b.Begin(labels[rng.Intn(len(labels))])
	rec(1)
	b.End()
	return b.MustDocument()
}

// RandomUpdate draws a random subtree update against d: insert-before,
// append-child, or delete-subtree, with a random fragment over the given
// vocabulary (Labels when nil; pass ForeignLabels to force the
// alphabet-disjoint maintenance path). Deletes need a non-root target, so
// a single-node document falls back to an append.
func RandomUpdate(rng *rand.Rand, d *xmltree.Document, labels []string) xmltree.Update {
	op := xmltree.UpdateOp(rng.Intn(3))
	if d.NumNodes() == 1 && op != xmltree.OpAppendChild {
		op = xmltree.OpAppendChild
	}
	switch op {
	case xmltree.OpAppendChild:
		return xmltree.Update{
			Op:       op,
			Target:   xmltree.NodeID(rng.Intn(d.NumNodes())),
			Fragment: RandomFragment(rng, 8, labels),
		}
	case xmltree.OpInsertBefore:
		return xmltree.Update{
			Op:       op,
			Target:   1 + xmltree.NodeID(rng.Intn(d.NumNodes()-1)),
			Fragment: RandomFragment(rng, 8, labels),
		}
	default:
		return xmltree.Update{
			Op:     xmltree.OpDeleteSubtree,
			Target: 1 + xmltree.NodeID(rng.Intn(d.NumNodes()-1)),
		}
	}
}

// RandomPattern builds a random TPQ of up to maxNodes nodes with unique
// labels drawn from labels (Labels when nil). All axes are chosen at random;
// the root axis is Descendant, matching the paper's queries, except that
// about one pattern in len(labels) is anchored at the document root: its
// root node becomes "/root", the label every random document's root
// carries. Put RootLabel in a document's or fragment's vocabulary to nest
// that label below the root.
func RandomPattern(rng *rand.Rand, maxNodes int, labels []string) *tpq.Pattern {
	if labels == nil {
		labels = Labels
	}
	if maxNodes > len(labels) {
		maxNodes = len(labels)
	}
	n := 1 + rng.Intn(maxNodes)
	perm := rng.Perm(len(labels))
	// The coin for anchoring is an unused part of the permutation — does it
	// leave the last label in place — not a further draw: the rng stream, and
	// with it what a committed fuzz corpus input decodes to, stays what it
	// was for every input whose coin comes up tails.
	anchored := n < len(perm) && perm[len(perm)-1] == len(perm)-1
	p := &tpq.Pattern{}
	for i := 0; i < n; i++ {
		node := tpq.Node{Label: labels[perm[i]], Axis: tpq.Descendant, Parent: -1}
		if i > 0 {
			node.Parent = rng.Intn(i)
			if rng.Intn(2) == 0 {
				node.Axis = tpq.Child
			}
			p.Nodes = append(p.Nodes, node)
			p.Nodes[node.Parent].Children = append(p.Nodes[node.Parent].Children, i)
			continue
		}
		p.Nodes = append(p.Nodes, node)
	}
	if anchored {
		p.Nodes[0].Label, p.Nodes[0].Axis = RootLabel, tpq.Child
	}
	return p
}

// RandomViewPartition splits the nodes of q into a covering set of views by
// randomly grouping query nodes; every returned view is a subpattern of q
// (connected groups become connected subpatterns, others use ad-edges to
// the nearest in-group ancestor). The result always satisfies
// tpq.ValidateViewSet.
func RandomViewPartition(rng *rand.Rand, q *tpq.Pattern) []*tpq.Pattern {
	n := q.Size()
	groups := make([]int, n)
	numGroups := 1 + rng.Intn(n)
	for i := range groups {
		groups[i] = rng.Intn(numGroups)
	}
	return ViewsFromGrouping(q, groups)
}

// ViewsFromGrouping builds one or more views per node group: within a
// group, each node's view-parent is its nearest ancestor in q that belongs
// to the same group (axis Child when that ancestor is the direct pc-parent,
// Descendant otherwise); group members with no in-group ancestor become
// roots of separate views.
func ViewsFromGrouping(q *tpq.Pattern, groups []int) []*tpq.Pattern {
	n := q.Size()
	type slot struct {
		view *tpq.Pattern
		idx  int
	}
	slots := make([]slot, n)
	var views []*tpq.Pattern
	// Process in pre-order so ancestors are placed before descendants.
	for i := 0; i < n; i++ {
		// Find the nearest ancestor of i in the same group.
		anc := -1
		for cur := q.Nodes[i].Parent; cur != -1; cur = q.Nodes[cur].Parent {
			if groups[cur] == groups[i] {
				anc = cur
				break
			}
		}
		if anc == -1 {
			v := &tpq.Pattern{Nodes: []tpq.Node{{Label: q.Nodes[i].Label, Axis: tpq.Descendant, Parent: -1}}}
			views = append(views, v)
			slots[i] = slot{v, 0}
			continue
		}
		v := slots[anc].view
		axis := tpq.Descendant
		if q.Nodes[i].Parent == anc && q.Nodes[i].Axis == tpq.Child {
			axis = tpq.Child
		}
		pi := slots[anc].idx
		idx := len(v.Nodes)
		v.Nodes = append(v.Nodes, tpq.Node{Label: q.Nodes[i].Label, Axis: axis, Parent: pi})
		v.Nodes[pi].Children = append(v.Nodes[pi].Children, idx)
		slots[i] = slot{v, idx}
	}
	return views
}

// SingletonViews returns one single-node view per query node — the
// degenerate covering set equivalent to raw element streams.
func SingletonViews(q *tpq.Pattern) []*tpq.Pattern {
	views := make([]*tpq.Pattern, q.Size())
	for i := range q.Nodes {
		views[i] = &tpq.Pattern{Nodes: []tpq.Node{{Label: q.Nodes[i].Label, Axis: tpq.Descendant, Parent: -1}}}
	}
	return views
}

// WholeQueryView returns the query itself as a single covering view.
func WholeQueryView(q *tpq.Pattern) []*tpq.Pattern {
	return []*tpq.Pattern{q.Clone()}
}

// PathChunkViews splits a path query into consecutive chunks of the given
// size (the classic path-view factorization used by InterJoin experiments).
// It panics if q is not a path.
func PathChunkViews(q *tpq.Pattern, chunk int) []*tpq.Pattern {
	if !q.IsPath() {
		panic(fmt.Sprintf("testutil: PathChunkViews on non-path query %s", q))
	}
	groups := make([]int, q.Size())
	for i := range groups {
		groups[i] = i / chunk
	}
	return ViewsFromGrouping(q, groups)
}

// InterleavedPathViews splits a path query into k views by assigning node i
// to view i mod k — maximally interleaving views, the hard case for
// InterJoin (§I's //a//c joined with //b example).
func InterleavedPathViews(q *tpq.Pattern, k int) []*tpq.Pattern {
	if !q.IsPath() {
		panic(fmt.Sprintf("testutil: InterleavedPathViews on non-path query %s", q))
	}
	groups := make([]int, q.Size())
	for i := range groups {
		groups[i] = i % k
	}
	return ViewsFromGrouping(q, groups)
}
