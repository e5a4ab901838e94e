// Piece table: how a Document derived by Apply holds its nodes.
//
// Apply keeps the paper's dense region labels without renumbering the
// document. A derived snapshot's tag sequence (positions 1..2n) is a
// concatenation of pieces, each a contiguous run of raw tag positions of one
// immutable source array, plus two constants that turn the run's raw
// coordinates into the snapshot's. A splice cuts at most two pieces and adds
// a constant to the later ones; raw records never change. Positions are the
// primary coordinate because a splice point is a tag position (append-child
// pivots on an end tag, which no node id names); a piece's id range is
// derived from its position range. DESIGN.md, "Document snapshots", has the
// argument and the alternatives.
package xmltree

import "sort"

// maxPieces bounds a table: one that has reached it is written out flat
// before the next splice, so reads stay O(log maxPieces) and the O(n) pass
// is paid once per maxPieces updates (EXPERIMENTS.md has the sweep).
const maxPieces = 64

// source is an immutable node array pieces are cut from: the flat array of
// a predecessor (raw labels are that snapshot's), or an inserted fragment's
// nodes with Type and Level already translated (raw positions 1..2m, raw
// ids 0..m-1). A fragment's root has raw Parent NoNode and hangs under node
// upID of source up.
type source struct {
	nodes []Node
	up    *source
	upID  NodeID
}

// piece is the run [posLo,posHi) of src's raw tag positions. [lo,hi) are
// the src nodes whose start tag lies in the run; it is empty when the run
// holds end tags only.
type piece struct {
	src          *source
	posLo, posHi int32
	lo, hi       NodeID
	dpos         int32  // snapshot position = raw position + dpos
	first        NodeID // snapshot id of src node lo
}

// byID returns the index of the piece holding snapshot id, byPos of the one
// holding snapshot tag position pos; len(ps) when there is none.
func byID(ps []piece, id NodeID) int {
	return sort.Search(len(ps), func(k int) bool { return ps[k].first+ps[k].hi-ps[k].lo > id })
}

func byPos(ps []piece, pos int32) int {
	return sort.Search(len(ps), func(k int) bool { return ps[k].posHi+ps[k].dpos > pos })
}

// translate turns raw record n of piece i into its label in the snapshot.
// Pieces of one source keep their raw order, so what n refers to outside
// its own piece is found by walking: its end tag in a later piece when n is
// an ancestor of a splice, its parent in an earlier one when n follows a
// splice under that parent.
func translate(ps []piece, i int, n Node) Node {
	p := &ps[i]
	n.Start += p.dpos
	j := i
	for n.End >= ps[j].posHi || ps[j].src != p.src {
		j++
	}
	n.End += ps[j].dpos
	src, raw := p.src, n.Parent
	if raw == NoNode {
		if src, raw = p.src.up, p.src.upID; src == nil {
			return n
		}
	}
	for j = i; ps[j].src != src || raw < ps[j].lo || raw >= ps[j].hi; {
		j--
	}
	n.Parent = raw - ps[j].lo + ps[j].first
	return n
}

// Range returns nodes [lo,hi) with their labels in this snapshot: a view of
// the flat array where there is one, a piece-walking copy otherwise.
// Callers must not modify it.
func (d *Document) Range(lo, hi NodeID) []Node {
	if flat := d.flatNodes(); flat != nil {
		return flat[lo:hi]
	}
	out := make([]Node, hi-lo)
	for i, k := byID(d.pieces, lo), 0; lo < hi; i++ {
		p := &d.pieces[i]
		a := p.lo + lo - p.first
		b := min(p.hi, a+hi-lo)
		run := out[k : k+copy(out[k:], p.src.nodes[a:b])]
		for j := range run {
			// All but the ancestors and the following siblings of a splice
			// lie in one piece with their end tag and their parent.
			if n := &run[j]; n.End < p.posHi && n.Parent >= p.lo {
				n.Start, n.End, n.Parent = n.Start+p.dpos, n.End+p.dpos, n.Parent+p.first-p.lo
			} else {
				*n = translate(d.pieces, i, *n)
			}
		}
		lo, k = lo+b-a, k+len(run)
	}
	return out
}

// flatNodes returns the snapshot's flat array, or nil while a derived
// snapshot has not been written out.
func (d *Document) flatNodes() []Node {
	if d.pieces == nil {
		return d.nodes
	}
	if f := d.flat.Load(); f != nil {
		return *f
	}
	return nil
}

// runAt returns the raw records among which the node with a start tag at
// or next after snapshot position pos is found, the constant that turns
// their Start into the snapshot's, and the snapshot id of run[0].
func (d *Document) runAt(pos int32) (run []Node, dpos int32, first NodeID) {
	if flat := d.flatNodes(); flat != nil {
		return flat, 0, 0
	}
	i := byPos(d.pieces, pos)
	if i == len(d.pieces) {
		return nil, 0, NodeID(d.NumNodes())
	}
	p := &d.pieces[i]
	return p.src.nodes[p.lo:p.hi], p.dpos, p.first
}

// table returns the pieces a successor of d is spliced from: d's own, or
// one piece over the flat array when d has one or has reached maxPieces.
func (d *Document) table() []piece {
	if d.flatNodes() == nil && len(d.pieces) < maxPieces {
		return d.pieces
	}
	nodes := d.Nodes()
	return []piece{{src: &source{nodes: nodes}, posLo: 1, posHi: int32(2*len(nodes) + 1), hi: NodeID(len(nodes))}}
}

// split divides a table at snapshot tag position pos, cutting the piece
// that holds pos unless it starts there. ps is not modified.
func split(ps []piece, pos int32) (left, right []piece) {
	i := byPos(ps, pos)
	if i == len(ps) || ps[i].posLo+ps[i].dpos == pos {
		return ps[:i], ps[i:]
	}
	l, r := ps[i], ps[i]
	raw := pos - l.dpos
	run := l.src.nodes[l.lo:l.hi]
	k := l.lo + NodeID(sort.Search(len(run), func(j int) bool { return run[j].Start >= raw }))
	l.posHi, l.hi = raw, k
	r.posLo, r.lo, r.first = raw, k, r.first+k-r.lo
	return append(ps[:i:i], l), append([]piece{r}, ps[i+1:]...)
}

// join concatenates left, mid and right into a new table, right moved by
// dpos tag positions and dn nodes.
func join(left, mid, right []piece, dpos int32, dn NodeID) []piece {
	ps := make([]piece, 0, len(left)+len(mid)+len(right))
	ps = append(append(ps, left...), mid...)
	for _, p := range right {
		p.dpos += dpos
		p.first += dn
		ps = append(ps, p)
	}
	return ps
}
