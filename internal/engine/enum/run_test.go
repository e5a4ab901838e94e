package enum

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"viewjoin/internal/counters"
	"viewjoin/internal/engine"
	"viewjoin/internal/store"
	"viewjoin/internal/tpq"
	"viewjoin/internal/views"
)

// runLists builds one store list per node of q from sorted synthetic
// labels: node 0 holds one root region per window (windows of 1 000
// positions, 900 of them covered by the root), every other node a run of
// leaves across all windows and their gaps, so a run read crosses window
// ends and page windows (64-byte pages: 5 labels each).
func runLists(rng *rand.Rand, q *tpq.Pattern, windows int, kind store.Kind) *store.ViewStore {
	m := &views.Materialized{View: q, Lists: make([]views.List, q.Size())}
	for qi := range m.Lists {
		l := &m.Lists[qi]
		if qi == 0 {
			for w := 0; w < windows; w++ {
				l.Labels = append(l.Labels, Label{Start: int32(1000 * w), End: int32(1000*w + 900), Level: 1})
			}
		} else {
			for s := int32(1 + rng.Intn(4)); s < int32(1000*windows); s += 2 + int32(rng.Intn(8)) {
				l.Labels = append(l.Labels, Label{Start: s, End: s + 1, Level: int32(1 + qi)})
			}
		}
		none := func() []int32 { // no pointer: the runs never follow one
			p := make([]int32, len(l.Labels))
			for i := range p {
				p[i] = -1
			}
			return p
		}
		l.Following, l.Descendant = none(), none()
		for range q.Nodes[qi].Children {
			l.Children = append(l.Children, none())
		}
	}
	return store.MustBuild(m, kind, 64)
}

// TestAddRunMatchesAdd offers random runs of one list in one move (AddRun)
// to one collector and record by record (Add, Next) to another, and holds
// everything either side can observe equal after every run: the candidate
// lists, the entries, the disorder flag, the spooled bytes, the pending
// buffer, the cursor and the counters — and afterwards PeakEntries, the
// disk-spool pages and the rows enumerated. Before some runs the Add side
// of both collectors takes a label equal to, or later than, the run's
// first, so the seam check meets a duplicate and a disorder; some rounds
// open with a run offered before any window is.
func TestAddRunMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for round := 0; round < 120; round++ {
		q := tpq.MustParse([]string{"//a//b", "//a[//c]//b", "//a//b//c"}[round%3])
		kind := []store.Kind{store.Element, store.Linked}[rng.Intn(2)]
		s := runLists(rng, q, 3+rng.Intn(6), kind)
		diskBased, first := rng.Intn(3) == 0, 0
		if rng.Intn(3) == 0 {
			first = unreached // flushes every window: the non-batching path
		}
		var cntA, cntB counters.Counters
		ioA, ioB := counters.NewIO(&cntA, 0), counters.NewIO(&cntB, 0)
		a, b := NewCollector(q, ioA, nil, diskBased), NewCollector(q, ioB, nil, diskBased)
		a.SetStream(first, nil)
		b.SetStream(first, nil)
		roots := s.Lists[0]
		what := fmt.Sprintf("round %d (%s, %v, disk %v, first %d)", round, q, kind, diskBased, first)

		same := func(step string, ca, cb *store.ListCursor) {
			t.Helper()
			if ca.Valid() != cb.Valid() || ca.Position() != cb.Position() || ca.Start() != cb.Start() {
				t.Fatalf("%s %s: cursor at %d (start %d), per-record loop at %d (start %d)",
					what, step, cb.Position(), cb.Start(), ca.Position(), ca.Start())
			}
			for qi := range a.cands {
				if !slices.Equal(a.cands[qi], b.cands[qi]) {
					t.Fatalf("%s %s: node %d holds %v, per-record Add %v", what, step, qi, b.cands[qi], a.cands[qi])
				}
			}
			if a.entries != b.entries || a.disorder != b.disorder || a.spoolIn != b.spoolIn || !slices.Equal(a.pending, b.pending) {
				t.Fatalf("%s %s: entries %d disorder %v spool %d pending %v; per-record Add %d %v %d %v", what, step,
					b.entries, b.disorder, b.spoolIn, b.pending, a.entries, a.disorder, a.spoolIn, a.pending)
			}
			if cntA != cntB {
				t.Fatalf("%s %s: counters %+v, per-record Add %+v", what, step, cntB, cntA)
			}
		}

		if rng.Intn(2) == 0 {
			// A run offered before any window opens: every record is
			// pending, as Add leaves it.
			l := s.Lists[1]
			hi := int32(rng.Intn(1500))
			var ca, cb store.ListCursor
			ca.Reset(l, ioA)
			cb.Reset(l, ioB)
			for ; ca.Start() < hi; ca.Next() {
				a.Add(1, ca.Label())
			}
			b.AddRun(1, &cb, hi)
			same(fmt.Sprintf("run to start %d before any window", hi), &ca, &cb)
		}
		for w := 0; w < roots.Entries(); w++ {
			root := roots.LabelAt(w)
			a.Add(0, root)
			b.Add(0, root)
			for runs := rng.Intn(4); runs > 0; runs-- {
				qi := 1 + rng.Intn(q.Size()-1)
				l := s.Lists[qi]
				lo := l.SeekStart(root.Start + int32(rng.Intn(900)))
				// Stop inside the window, at its end, or past it (the
				// records beyond the window go to the pending buffer).
				hi := root.Start + int32(rng.Intn(1100))
				if rng.Intn(4) == 0 {
					hi = root.End + 1
				}
				var ca, cb store.ListCursor
				ca.ResetRange(l, ioA, lo, l.Entries())
				cb.ResetRange(l, ioB, lo, l.Entries())
				if ca.Valid() && rng.Intn(3) == 0 {
					seam := ca.Label() // a repeated first label
					if rng.Intn(2) == 0 {
						seam.Start += 1 + int32(rng.Intn(20)) // a later one: the run's first is earlier
					}
					a.Add(qi, seam)
					b.Add(qi, seam)
				}
				for ; ca.Start() < hi; ca.Next() {
					a.Add(qi, ca.Label())
				}
				b.AddRun(qi, &cb, hi)
				same(fmt.Sprintf("window %d, node %d, run from %d to start %d", w, qi, lo, hi), &ca, &cb)
			}
		}
		rowsA, rowsB := a.Result(), b.Result()
		if a.PeakEntries() != b.PeakEntries() || cntA != cntB {
			t.Fatalf("%s: PeakEntries %d counters %+v; per-record Add %d %+v", what, b.PeakEntries(), cntB, a.PeakEntries(), cntA)
		}
		if len(rowsA) != len(rowsB) {
			t.Fatalf("%s: %d rows, per-record Add %d", what, len(rowsB), len(rowsA))
		}
		for i := range rowsA {
			if !slices.Equal(rowsA[i], rowsB[i]) {
				t.Fatalf("%s: row %d is %v, per-record Add %v", what, i, rowsB[i], rowsA[i])
			}
		}
	}
}

// TestInterruptStopsInsideFanOut binds one parent candidate whose last-node
// fan-out is 5 000 rows, in an unbounded run (the enumeration's tight loop
// for the last node), under a hook that fails on its third poll. The
// checker polls its hook every 256th check, so the run must stop after some
// hundreds of rows, inside the fan-out, with the hook's error — on which an
// engine's Run abandons the partial output.
func TestInterruptStopsInsideFanOut(t *testing.T) {
	const fanOut = 5000
	src := "<r><a>" + strings.Repeat("<b/>", fanOut) + "</a></r>"
	q := tpq.MustParse("//a//b")
	var cnt counters.Counters
	c := NewCollector(q, counters.NewIO(&cnt, 0), nil, false)
	boom := errors.New("deadline")
	polls := 0
	ic := engine.NewInterrupter(func() error {
		if polls++; polls == 3 {
			return boom
		}
		return nil
	})
	c.SetInterrupt(&ic)
	feed(doc(t, src), q, c)
	c.Result()
	if !errors.Is(ic.Err(), boom) {
		t.Fatalf("run ended with %v, want the hook's error", ic.Err())
	}
	if got := c.Emitted(); got == 0 || got >= fanOut || polls != 3 {
		t.Fatalf("run kept %d rows of the %d-row fan-out and polled %d times: it must stop inside the fan-out at the third poll",
			got, fanOut, polls)
	}
}
