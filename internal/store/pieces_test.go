package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"viewjoin/internal/counters"
	"viewjoin/internal/testutil"
	"viewjoin/internal/tpq"
	"viewjoin/internal/views"
)

// pieceView has an unscoped root list with three child classes, one of
// them a pc-edge, and scoped lists below it, one with a child class of its
// own.
var pieceView = tpq.MustParse("//a[//b][/c]//d[//e]")

// pieceRun is one random splice history, held by the piece table (got) and
// by the eager reference (want) side by side. The lists are synthetic:
// start-sorted labels with random ends and pointers anywhere in their
// target lists, so every piece and translation rule is reached without a
// document behind them.
type pieceRun struct {
	t         testing.TB
	rng       *rand.Rand
	got, want *ViewStore
	writeOuts int
}

func newPieceRun(t testing.TB, rng *rand.Rand, kind Kind, pageSize, maxLen int) *pieceRun {
	m := &views.Materialized{View: pieceView, Lists: make([][]views.Entry, pieceView.Size())}
	for q := range m.Lists {
		m.Lists[q] = make([]views.Entry, rng.Intn(maxLen+1))
	}
	for q, list := range m.Lists {
		start := int32(0)
		for i := range list {
			start += 1 + int32(rng.Intn(6))
			e := &list[i]
			e.Start, e.End, e.Level = start, start+int32(rng.Intn(40)), int32(rng.Intn(8))
			e.Following, e.Descendant = randomPointer(rng, len(list)), randomPointer(rng, len(list))
			for _, c := range pieceView.Nodes[q].Children {
				e.Children = append(e.Children, randomPointer(rng, len(m.Lists[c])))
			}
		}
	}
	s := MustBuild(m, kind, pageSize)
	return &pieceRun{t: t, rng: rng, got: s, want: s}
}

func randomPointer(rng *rand.Rand, n int) int32 { return int32(rng.Intn(n+1)) - 1 }

// step splices both stores with one random update: an insert or a delete
// at a random pivot, a region per list around it with random new records,
// the chain of every list, and SetPointers on every record the contract
// demands — the region's, and every carried record with a pointer into a
// cut — plus random others, in random order and some twice.
func (r *pieceRun) step() {
	rng, old := r.rng, r.want
	maxStart := int32(1)
	for _, l := range old.Lists {
		if l.entries > 0 {
			maxStart = max(maxStart, l.LabelAt(l.entries-1).Start)
		}
	}
	p, m := 1+int32(rng.Intn(int(maxStart)+8)), int32(1+rng.Intn(4))
	delta, lastMin := 2*m, p-1
	if rng.Intn(2) == 0 {
		delta, lastMin = -2*m, p+2*m-1 // the dead range is [p, p+2m-1]
	}
	cuts := make([]Cut, len(old.Lists))
	for q, l := range old.Lists {
		first := p - int32(rng.Intn(3)*rng.Intn(8))
		last := lastMin + int32(rng.Intn(3)*rng.Intn(8))
		// As in a tree, no record may end inside the dead range of a delete
		// without starting inside the cut.
		for j := l.SeekStart(first) - 1; delta < 0 && j >= 0; j-- {
			if e := l.LabelAt(j).End; e >= p && e < p-delta {
				first = l.LabelAt(j).Start
			}
		}
		c := Cut{A: l.SeekStart(first), B: l.SeekStart(last + 1)}
		if hi := last + delta; hi >= first {
			for s := first + int32(rng.Intn(3)); s <= hi && len(c.Region) < 6; s += 1 + int32(rng.Intn(4)) {
				c.Region = append(c.Region, Label{Start: s, End: s + int32(rng.Intn(20)), Level: int32(rng.Intn(8))})
			}
		}
		for j := 0; j < c.A; j++ {
			if l.LabelAt(j).End >= p {
				c.Chain = append(c.Chain, j)
			}
		}
		cuts[q] = c
	}
	if r.got.full() {
		r.writeOuts++
	}
	gsp, wsp := NewSplicer(r.got, p, delta, cuts), newRefSplicer(old, p, delta, cuts)

	type rec struct{ q, i int }
	var todo []rec
	for q, l := range old.Lists {
		c := cuts[q]
		n := l.entries + int(c.shift())
		img := l.image()
		for i := 0; i < n; i++ {
			in := i >= c.A && i < c.A+len(c.Region)
			must := in && rng.Intn(8) != 0
			if !in {
				from := i
				if i >= c.A {
					from = i - int(c.shift())
				}
				for class, seg := range img.ptrs {
					if seg == nil {
						continue
					}
					t := c
					if class >= segChild0 {
						t = cuts[pieceView.Nodes[q].Children[class-segChild0]]
					}
					if v := img.raw(class, int32(from)); v >= int32(t.A) && v < int32(t.B) {
						must = true
					}
				}
			}
			if must || rng.Intn(20) == 0 {
				todo = append(todo, rec{q, i})
			}
			if rng.Intn(60) == 0 {
				todo = append(todo, rec{q, i})
			}
		}
	}
	rng.Shuffle(len(todo), func(a, b int) { todo[a], todo[b] = todo[b], todo[a] })
	for _, x := range todo {
		n := func(q int) int { return old.Lists[q].entries + int(cuts[q].shift()) }
		f, d := randomPointer(rng, n(x.q)), randomPointer(rng, n(x.q))
		var ch []int32
		for _, c := range pieceView.Nodes[x.q].Children {
			ch = append(ch, randomPointer(rng, n(c)))
		}
		gsp.SetPointers(x.q, x.i, f, d, ch)
		wsp.SetPointers(x.q, x.i, f, d, ch)
	}
	before := storeBytes(r.t, r.got)
	prev := r.got
	r.got, r.want = gsp.Finish(), wsp.Finish()
	if !bytes.Equal(storeBytes(r.t, prev), before) {
		r.t.Fatal("the splice changed its predecessor")
	}
}

// check holds every read of the piece table to the reference: sizes and
// headers, every LabelAt and SeekStart, the written image byte for
// byte, and the cursor touch for touch.
func (r *pieceRun) check(what string) {
	t, got, want := r.t, r.got, r.want
	if gb, wb := storeBytes(t, got), storeBytes(t, want); !bytes.Equal(gb, wb) {
		for q, l := range got.Lists {
			gi, wi := l.image(), want.Lists[q].image()
			for i := int32(0); i < int32(min(l.entries, want.Lists[q].entries)); i++ {
				if gi.label(i) != wi.label(i) {
					t.Logf("list %d record %d: label %v, reference %v (pieces %+v)", q, i, gi.label(i), wi.label(i), l.pieces)
				}
				for class := range gi.ptrs {
					if gi.raw(class, i) != wi.raw(class, i) {
						t.Logf("list %d record %d class %d: %d, reference %d", q, i, class, gi.raw(class, i), wi.raw(class, i))
					}
				}
			}
		}
		t.Fatalf("%s: images differ: %v", what, CheckEquivalent(got, want))
	}
	if got.SizeBytes() != want.SizeBytes() || got.NumPages() != want.NumPages() ||
		got.PayloadBytes() != want.PayloadBytes() || got.NumPointers() != want.NumPointers() {
		t.Fatalf("%s: sizes %d/%d/%d/%d, reference %d/%d/%d/%d", what,
			got.SizeBytes(), got.NumPages(), got.PayloadBytes(), got.NumPointers(),
			want.SizeBytes(), want.NumPages(), want.PayloadBytes(), want.NumPointers())
	}
	for q, l := range got.Lists {
		w := want.Lists[q]
		if l.entries != w.entries || l.mask != w.mask || l.counts != w.counts {
			t.Fatalf("%s list %d: %d records, mask %#x, counts %v; reference %d, %#x, %v",
				what, q, l.entries, l.mask, l.counts, w.entries, w.mask, w.counts)
		}
		for i := 0; i < l.entries; i++ {
			if l.LabelAt(i) != w.LabelAt(i) {
				t.Fatalf("%s list %d record %d: label %v, reference %v", what, q, i, l.LabelAt(i), w.LabelAt(i))
			}
			s := w.LabelAt(i).Start
			for _, probe := range []int32{s - 1, s, s + 1} {
				if g, w := l.SeekStart(probe), w.SeekStart(probe); g != w {
					t.Fatalf("%s list %d: SeekStart(%d) = %d, reference %d", what, q, probe, g, w)
				}
			}
		}
		if g, w := l.SeekStart(1<<30), w.SeekStart(1<<30); g != w {
			t.Fatalf("%s list %d: SeekStart(max) = %d, reference %d", what, q, g, w)
		}
	}
	r.checkCursors(what)
}

// checkCursors walks every list of the piece table with a cursor beside
// the reference cursor over its flat image (same page identities):
// the whole list, seeking a probe to every pointer of every class on the
// way, then windows around every piece boundary.
func (r *pieceRun) checkCursors(what string) {
	t, s := r.t, r.got
	var gotC, wantC counters.Counters
	var got, want []touch
	gotIO, wantIO := &counters.IO{C: &gotC}, &counters.IO{C: &wantC}
	gotIO.Page = func(file uintptr, page int32) { got = append(got, touch{file, page}) }
	wantIO.Page = func(file uintptr, page int32) { want = append(want, touch{file, page}) }
	same := func(where string, c *ListCursor, ref *refCursor) {
		if c.Valid() != ref.valid || c.Position() != Pointer(ref.idx) || (ref.valid && current(c) != ref.rec) {
			t.Fatalf("%s %s: valid=%v at %d %+v, reference valid=%v at %d %+v",
				what, where, c.Valid(), c.Position(), current(c), ref.valid, ref.idx, ref.rec)
		}
		if gotC != wantC || !slices.Equal(got, want) {
			t.Fatalf("%s %s: counters %+v touches %v, reference %+v %v", what, where, gotC, got, wantC, want)
		}
		got, want = got[:0], want[:0]
	}
	imgs := make([]*source, len(s.Lists))
	for q, l := range s.Lists {
		imgs[q] = l.image()
	}
	walk := func(where string, q, lo, hi int, probes bool) {
		l := s.Lists[q]
		var cur, probe ListCursor
		var ref, refProbe refCursor
		cur.ResetRange(l, gotIO, lo, hi)
		ref.resetRange(l, imgs[q], wantIO, lo, hi)
		same(where, &cur, &ref)
		for ref.valid {
			if probes {
				for class := 0; class < numPtrSegs; class++ {
					ptr := ref.rec.Following
					switch {
					case class == segDescendant:
						ptr = ref.rec.Descendant
					case class >= segChild0:
						ptr = ref.rec.Children[class-segChild0]
					}
					if ptr.IsNil() {
						continue
					}
					target := q
					if class >= segChild0 {
						target = pieceView.Nodes[q].Children[class-segChild0]
					}
					probe.Reset(s.Lists[target], gotIO)
					refProbe.resetRange(s.Lists[target], imgs[target], wantIO, 0, s.Lists[target].entries)
					probe.Seek(ptr)
					refProbe.seek(ptr)
					same(where+" seek", &probe, &refProbe)
				}
			}
			cur.Next()
			ref.next()
			same(where, &cur, &ref)
		}
	}
	for q, l := range s.Lists {
		walk("walk", q, 0, l.entries, true)
		for k := 1; k < len(l.pieces); k++ {
			b := int(l.pieces[k].at)
			walk("window", q, b-1, b+1, false)
			walk("window", q, b-r.rng.Intn(8), b+r.rng.Intn(8), false)
		}
	}
}

// touch is one page charge as the IO's Page hook sees it.
type touch struct {
	file uintptr
	page int32
}

// runPieces runs steps splices of a random history and checks the piece
// table after each.
func runPieces(t testing.TB, rng *rand.Rand, kind Kind, pageSize, maxLen, steps int) *pieceRun {
	r := newPieceRun(t, rng, kind, pageSize, maxLen)
	r.check("built")
	for i := 0; i < steps; i++ {
		r.step()
		r.check(fmt.Sprintf("step %d", i))
	}
	return r
}

// TestPieceListMatchesReference holds the piece table to the eager splice
// over 200 random splices per history, enough to write every table out
// flat several times, for every list scheme and a small and a default
// page, one seed each.
func TestPieceListMatchesReference(t *testing.T) {
	steps := 200
	if testing.Short() {
		steps = 80
	}
	seed := int64(0)
	for _, kind := range []Kind{Element, Linked, LinkedPartial} {
		for _, pageSize := range []int{64, 4096} {
			seed++
			r := runPieces(t, rand.New(rand.NewSource(seed)), kind, pageSize, 60, steps)
			if want := steps / 80; r.writeOuts < want {
				t.Errorf("seed %d %v/%d: %d write-outs in %d splices, want at least %d", seed, kind, pageSize, r.writeOuts, steps, want)
			}
		}
	}
}

// FuzzPieceList is the same comparison over histories the fuzzer draws:
// the bytes drive the generator through testutil.ByteSource.
func FuzzPieceList(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		rng := testutil.NewByteRand(data)
		kind := []Kind{Element, Linked, LinkedPartial}[rng.Intn(3)]
		runPieces(t, rng, kind, []int{64, 128, 4096}[rng.Intn(3)], 40, 30)
	})
}

// TestCutLogTranslates cuts a list of records with identities at random
// and holds translate to where the records went: every record that
// survives from the list as it was after k cuts is found from its offset
// then, through the cuts after the kth.
func TestCutLogTranslates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for it := 0; it < 5000; it++ {
		ids := make([]int, 20)
		for i := range ids {
			ids[i] = i
		}
		next, c, versions := len(ids), cutLog{}, [][]int{ids}
		for k := 0; k < 1+rng.Intn(8); k++ {
			a := rng.Intn(len(ids) + 1)
			b := a + rng.Intn(len(ids)-a+1)
			cut := append([]int(nil), ids[:a]...)
			for region := rng.Intn(4); region > 0; region-- {
				cut, next = append(cut, next), next+1
			}
			c = c.then(int32(b), int32(len(cut)-b))
			ids = append(cut, ids[b:]...)
			versions = append(versions, ids)
		}
		for since, old := range versions {
			for v, id := range old {
				if i := slices.Index(ids, id); i >= 0 {
					if got := c.translate(int32(since), int32(v)); got != int32(i) {
						t.Fatalf("record %d was at %d after %d cuts and is at %d; translate says %d (cuts %v)", id, v, since, i, got, c)
					}
				}
			}
		}
	}
}
