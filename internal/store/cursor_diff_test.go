package store

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"viewjoin/internal/counters"
	"viewjoin/internal/tpq"
	"viewjoin/internal/views"
	"viewjoin/internal/xmltree"
)

// record is one fully decoded list record: the label and every pointer
// class, absent ones nil.
type record struct {
	Start, End, Level int32
	Following         Pointer
	Descendant        Pointer
	Children          [MaxChildren]Pointer
}

// current reads the cursor's record through its accessors.
func current(c *ListCursor) record {
	r := record{Start: c.Start(), End: c.End(), Level: c.Label().Level, Following: c.Following(), Descendant: c.Descendant()}
	for slot := range r.Children {
		r.Children[slot] = c.Child(slot)
	}
	return r
}

// refCursor is the reference the list cursor is compared against: the
// record path over the list's flat image, without page windows or pieces.
// Every landing finds its pages and bytes by dividing by the page
// geometry, decodes every pointer class, and remembers per segment the
// page charged last. It charges the IO and the counters it is given in
// the order the cost model fixes: labels page, scanned element, then each
// present pointer segment's page, following, descendant, child slots
// ascending.
type refCursor struct {
	l        *ListFile
	img      *source
	io       *counters.IO
	lo, hi   int32
	idx      int32
	lastPage [1 + numPtrSegs]int32
	rec      record
	valid    bool
}

// resetRange opens records [lo, hi) of l, whose flat image is img.
func (r *refCursor) resetRange(l *ListFile, img *source, io *counters.IO, lo, hi int) {
	lo, hi = max(lo, 0), min(hi, l.entries)
	*r = refCursor{l: l, img: img, io: io, lo: int32(lo), hi: int32(hi), idx: int32(lo)}
	for i := range r.lastPage {
		r.lastPage[i] = -1
	}
	if lo < hi {
		r.load(r.lo)
	}
}

func (r *refCursor) next() {
	if !r.valid {
		return
	}
	if r.idx+1 >= r.hi {
		r.valid = false
		return
	}
	r.load(r.idx + 1)
}

func (r *refCursor) seek(p Pointer) {
	r.io.C.PointerDerefs++
	switch {
	case p.IsNil() || int32(p) >= r.hi || r.lo >= r.hi:
		r.valid = false
	case int32(p) < r.lo:
		r.load(r.lo)
	default:
		r.load(int32(p))
	}
}

func (r *refCursor) load(i int32) {
	l := r.l
	if pg := i / int32(l.pageSize/labelBytes); r.lastPage[0] != pg {
		r.io.Touch(l.token, pg)
		r.lastPage[0] = pg
	}
	r.io.C.ElementsScanned++
	lab := r.img.label(i)
	r.rec = record{Start: lab.Start, End: lab.End, Level: lab.Level,
		Following: r.pointer(segFollowing, i), Descendant: r.pointer(segDescendant, i)}
	for slot := range r.rec.Children {
		r.rec.Children[slot] = r.pointer(segChild0+slot, i)
	}
	r.idx, r.valid = i, true
}

func (r *refCursor) pointer(class int, i int32) Pointer {
	if r.l.mask&(1<<class) == 0 {
		return NilPointer
	}
	if pg := i / int32(r.l.pageSize/ptrBytes); r.lastPage[1+class] != pg {
		r.io.Touch(r.l.token+1+uintptr(class), pg)
		r.lastPage[1+class] = pg
	}
	return Pointer(r.img.raw(class, i))
}

var (
	diffKinds     = []Kind{Element, Linked, LinkedPartial}
	diffPageSizes = []int{64, 128, 256, 1024, 4096} // 64: 5 labels and 16 pointers to a page
)

// cursorFixture lays one view out in every scheme and page size under
// test, each as built and as a piece table (spliced). The document nests
// and repeats the view's element types, so the lists hold scoped and
// unscoped following pointers, descendant pointers, two child slots on the
// root list and, in LEp, classes that are present in one list and absent in
// another.
var cursorFixture = sync.OnceValue(func() map[[2]int][]*ListFile {
	rng := rand.New(rand.NewSource(7))
	b := xmltree.NewBuilder()
	var grow func(depth int)
	grow = func(depth int) {
		for n := rng.Intn(4); n > 0; n-- {
			switch tag := []string{"a", "b", "c", "x"}[rng.Intn(4)]; {
			case depth < 4 && tag != "c":
				b.Element(tag, func() { grow(depth + 1) })
			default:
				b.Leaf(tag)
			}
		}
	}
	b.Element("r", func() {
		for i := 0; i < 60; i++ {
			b.Element("a", func() { grow(1) })
		}
	})
	m := views.MustMaterialize(b.MustDocument(), tpq.MustParse("//a[//c]//b"))
	lists := map[[2]int][]*ListFile{}
	for _, kind := range diffKinds {
		for _, pageSize := range diffPageSizes {
			s := MustBuild(m, kind, pageSize)
			lists[[2]int{int(kind), pageSize}] = append(slices.Clone(s.Lists), spliced(s, rng).Lists...)
		}
	}
	return lists
})

// spliced returns s after three inserts of elements of no view type at
// random pivots: every list becomes a piece table whose seams fall at the
// pivots and around the ancestors whose end labels moved, and whose
// pointers are translated on read.
func spliced(s *ViewStore, rng *rand.Rand) *ViewStore {
	for k := 0; k < 3; k++ {
		top := s.Lists[0].LabelAt(s.Lists[0].entries - 1).Start
		p := 1 + int32(rng.Intn(int(top)))
		cuts := make([]Cut, len(s.Lists))
		for q, l := range s.Lists {
			a := l.SeekStart(p)
			cuts[q] = Cut{A: a, B: a}
			for j := 0; j < a; j++ {
				if l.LabelAt(j).End >= p {
					cuts[q].Chain = append(cuts[q].Chain, j)
				}
			}
		}
		s = NewSplicer(s, p, 2, cuts).Finish()
	}
	return s
}

// runCursorOps drives a ListCursor and a refCursor with the op string and
// fails on the first step at which anything observable differs: validity,
// label, every pointer class, ordinal, the exhausted sentinel, every page
// touch (segment and page, in order) and the counters.
func runCursorOps(t *testing.T, kind Kind, pageSize int, ops []byte) {
	lists := cursorFixture()[[2]int{int(kind), pageSize}]
	var gotC, wantC counters.Counters
	var got, want []touch
	gotIO, wantIO := &counters.IO{C: &gotC}, &counters.IO{C: &wantC}
	gotIO.Page = func(file uintptr, page int32) { got = append(got, touch{file, page}) }
	wantIO.Page = func(file uintptr, page int32) { want = append(want, touch{file, page}) }

	var cur ListCursor
	var ref refCursor
	l := lists[0]
	cur.Reset(l, gotIO)
	ref.resetRange(l, l.image(), wantIO, 0, l.entries)

	step := 0
	same := func(what string, c *ListCursor, r *refCursor) {
		t.Helper()
		if c.Valid() != r.valid || int(c.Position()) != int(r.idx) || c.Position() != Pointer(r.idx) {
			t.Fatalf("step %d (%s): valid=%v ordinal=%d, reference valid=%v ordinal=%d",
				step, what, c.Valid(), int(c.Position()), r.valid, r.idx)
		}
		if r.valid {
			if got := current(c); got != r.rec || c.Label() != (Label{Start: r.rec.Start, End: r.rec.End, Level: r.rec.Level}) {
				t.Fatalf("step %d (%s): record %d reads %+v, reference %+v", step, what, r.idx, got, r.rec)
			}
		} else if c.Start() != math.MaxInt32 || c.End() != math.MaxInt32 {
			t.Fatalf("step %d (%s): exhausted cursor reads [%d,%d], want the +inf sentinel", step, what, c.Start(), c.End())
		}
		if gotC != wantC {
			t.Fatalf("step %d (%s): counters %+v, reference %+v", step, what, gotC, wantC)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d (%s): page touches (file, page) %v, reference %v", step, what, got, want)
		}
		got, want = got[:0], want[:0]
	}
	same("open", &cur, &ref)

	arg := func() int {
		if len(ops) == 0 {
			return 0
		}
		v := int(ops[0])
		ops = ops[1:]
		return v
	}
	// target picks a pointer to seek: a record of the list, the current
	// record's own following or descendant pointer, nil, or an offset on
	// either side of the cursor's window and of the list.
	target := func() Pointer {
		switch v := arg(); {
		case v < 160:
			return Pointer(arg() * l.entries / 256)
		case v < 180 && ref.valid:
			return ref.rec.Following
		case v < 200 && ref.valid:
			return ref.rec.Descendant
		case v < 215:
			return NilPointer
		case v < 225:
			return Pointer(ref.hi)
		case v < 235:
			return Pointer(ref.lo - 1)
		case v < 245:
			return Pointer(l.entries)
		default:
			return Pointer(l.entries + arg())
		}
	}
	// startAt is the start label of record i of the list, +inf past its end.
	startAt := func(i int) int32 {
		if i >= l.entries {
			return math.MaxInt32
		}
		return l.LabelAt(max(i, 0)).Start
	}
	// bound picks where a run read stops: the start label of a record of
	// the list, of the record at a label or pointer page edge ahead of the
	// cursor, at a piece seam, at the list's end or at the cursor's upper
	// bound — or one either side of it.
	bound := func() int32 {
		v := arg()
		var b int32
		switch v % 5 {
		case 0:
			b = startAt(arg() * l.entries / 256)
		case 1:
			per := int(perPage(l.pageSize, labelBytes))
			if arg()%2 == 1 {
				per = int(perPage(l.pageSize, ptrBytes))
			}
			b = startAt((int(ref.idx)/per + 1 + arg()%3) * per)
		case 2:
			b = startAt(arg() * l.entries / 256)
			if len(l.pieces) > 1 {
				b = startAt(int(l.pieces[1+arg()%(len(l.pieces)-1)].at))
			}
		case 3:
			b = startAt(l.entries - 1 + arg()%2)
		default:
			b = startAt(int(ref.hi))
		}
		switch v / 5 % 3 {
		case 1:
			b = max(b-1, 0)
		case 2:
			b = min(b, math.MaxInt32-1) + 1
		}
		return b
	}
	for len(ops) > 0 {
		step++
		switch op := arg() % 11; op {
		case 0, 1, 2, 3:
			cur.Next()
			ref.next()
			same("Next", &cur, &ref)
		case 4, 5:
			p := target()
			cur.Seek(p)
			ref.seek(p)
			same("Seek", &cur, &ref)
		case 6:
			l = lists[arg()%len(lists)]
			lo, hi := arg()*(l.entries+8)/256-4, arg()*(l.entries+8)/256-4
			cur.ResetRange(l, gotIO, lo, hi)
			ref.resetRange(l, l.image(), wantIO, lo, hi)
			same("ResetRange", &cur, &ref)
		case 10:
			// A run read into a buffer of room records, grown by room
			// whenever a call fills it, as a collector grows its lists. A
			// call on a full buffer must neither append nor move.
			hi, room := bound(), 1+arg()%8
			if arg()%4 == 0 {
				room = 1 << 10
			}
			if arg()%8 == 0 {
				if n := len(cur.AppendBefore(nil, hi)); n != 0 {
					t.Fatalf("step %d: AppendBefore on a full buffer appended %d labels", step, n)
				}
				same("AppendBefore full", &cur, &ref)
			}
			run := make([]Label, 0, room)
			for {
				n := len(run)
				run = cur.AppendBefore(run, hi)
				for _, lab := range run[n:] {
					if want := (Label{Start: ref.rec.Start, End: ref.rec.End, Level: ref.rec.Level}); !ref.valid || ref.rec.Start >= hi || lab != want {
						t.Fatalf("step %d: AppendBefore(%d) appended %+v, reference valid=%v at %+v", step, hi, lab, ref.valid, want)
					}
					ref.next()
				}
				same("AppendBefore", &cur, &ref)
				if cur.Start() >= hi {
					break
				}
				if len(run) < cap(run) {
					t.Fatalf("step %d: AppendBefore(%d) stopped at %d with room left", step, hi, cur.Start())
				}
				run = slices.Grow(run, room)
			}
			if ref.valid && ref.rec.Start < hi {
				t.Fatalf("step %d: AppendBefore(%d) stopped before the reference's record at %d", step, hi, ref.rec.Start)
			}
		default:
			// The engines' probe idiom: seek a copy, then keep or drop it.
			p := target()
			probe, refProbe := cur, ref
			probe.Seek(p)
			refProbe.seek(p)
			same("probe", &probe, &refProbe)
			if op == 9 {
				cur, ref = probe, refProbe
			}
			same("after probe", &cur, &ref)
		}
	}
}

// TestCursorMatchesReferenceDecode runs random op strings over every
// element-family scheme, page sizes from 64 bytes (windows of 5 labels and
// 16 pointers, crossed constantly) to 4096.
func TestCursorMatchesReferenceDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kind := range diffKinds {
		for _, pageSize := range diffPageSizes {
			for round := 0; round < 40; round++ {
				ops := make([]byte, 40+rng.Intn(400))
				rng.Read(ops)
				runCursorOps(t, kind, pageSize, ops)
			}
		}
	}
	// A whole-list scan per list, which the random strings rarely finish,
	// then the whole list as one run read, a record and a kilo-record of
	// room at a time.
	for _, kind := range diffKinds {
		for q := range cursorFixture()[[2]int{int(kind), 64}] {
			ops := append([]byte{6, byte(q), 0, 255}, make([]byte, 400)...)
			runCursorOps(t, kind, 64, ops)
			runCursorOps(t, kind, 64, []byte{6, byte(q), 0, 255, 10, 3, 1, 0, 1, 1})
			runCursorOps(t, kind, 64, []byte{6, byte(q), 0, 255, 10, 3, 1, 7, 0, 0})
		}
	}
}

// FuzzCursorOps is the same comparison over fuzzer-chosen op strings: Next,
// Seek, ResetRange, a probe, and a run read (AppendBefore). The third
// argument is unused; it stays so the committed corpus still loads.
func FuzzCursorOps(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(1), []byte{0, 0, 0, 0, 0, 0, 4, 10, 200, 0, 0})
	f.Add(uint8(1), uint8(0), uint8(2), []byte{6, 1, 20, 200, 0, 0, 7, 170, 0, 9, 190, 0, 4, 220, 0})
	f.Add(uint8(2), uint8(1), uint8(0), []byte{6, 2, 0, 255, 8, 100, 128, 0, 9, 100, 250, 0, 5, 230, 0, 0})
	f.Add(uint8(2), uint8(4), uint8(4), []byte{4, 210, 0, 4, 50, 50, 0, 6, 0, 255, 0, 0})
	f.Fuzz(func(t *testing.T, kindSel, pageSel, _ uint8, ops []byte) {
		runCursorOps(t, diffKinds[int(kindSel)%len(diffKinds)], diffPageSizes[int(pageSel)%len(diffPageSizes)], ops)
	})
}
