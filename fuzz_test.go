package viewjoin

import (
	"context"
	"fmt"
	"testing"

	"viewjoin/internal/testutil"
	"viewjoin/internal/tpq"
)

// FuzzEvaluateDifferential is the repository's differential fuzzer: the
// fuzz bytes deterministically drive testutil's generators (via
// testutil.ByteSource) to produce a random document, a random TPQ, and a
// random covering view partition, and every applicable engine/scheme pair
// is then required to agree exactly with the brute-force oracle. Any
// divergence or panic is a bug in one of the engines, the view
// segmentation, or the storage layer; the corpus under
// testdata/fuzz/FuzzEvaluateDifferential pins previously-interesting
// generator inputs.
func FuzzEvaluateDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("viewjoin"))
	f.Add([]byte{0x00, 0xff, 0x10, 0x20, 0x42, 0x99, 0x7f, 0x01, 0xee, 0x31})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 0xca, 0xfe, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		rng := testutil.NewByteRand(data)
		doc := newDocument(testutil.RandomDoc(rng, 60, nil))
		pat := testutil.RandomPattern(rng, 4, nil)
		q := &Query{pat}
		want := EvaluateDirect(doc, q)

		partitions := [][]*tpq.Pattern{
			testutil.RandomViewPartition(rng, pat),
			testutil.SingletonViews(pat),
			testutil.WholeQueryView(pat),
		}
		// Partition target for the parallel path, drawn after every other
		// generator so existing corpus entries keep their doc/query/views.
		k := 2 + rng.Intn(3)
		// Page bounds for the LIMIT/OFFSET arm, drawn after k for
		// the same corpus-stability reason. Limits past the collector's
		// partial-flush floor arm its first flush from the quota.
		pageLim := 1 + rng.Intn(8)
		pageOff := rng.Intn(3)
		// Cursors for the resume arm, drawn last for the same reason: a row
		// of the oracle result, and that row with one label moved by one —
		// a position between rows, which no genuine cursor names.
		var cursors [][]int32
		if n := len(want.Matches); n > 0 {
			row := want.Matches[rng.Intn(n)]
			at, moved := make([]int32, len(row)), make([]int32, len(row))
			for i, b := range row {
				at[i], moved[i] = b.Start, b.Start
			}
			moved[rng.Intn(len(row))] += int32(2*rng.Intn(2) - 1)
			cursors = [][]int32{at, moved}
		}
		for pi, part := range partitions {
			views := make([]*Query, len(part))
			for i, vp := range part {
				views[i] = &Query{vp}
			}
			for _, scheme := range []StorageScheme{SchemeElement, SchemeLEp} {
				mv, err := doc.MaterializeViews(views, scheme)
				if err != nil {
					t.Fatalf("partition %d scheme %v: materialize: %v", pi, scheme, err)
				}
				engines := []Engine{EngineViewJoin, EngineTwigStack}
				if q.IsPath() {
					engines = append(engines, EnginePathStack)
				}
				for _, eng := range engines {
					res, err := Evaluate(nil, doc, q, mv, eng, nil)
					if err != nil {
						t.Fatalf("partition %d %v+%v: %v", pi, eng, scheme, err)
					}
					if !sameMatches(res, want) {
						t.Fatalf("partition %d %v+%v: %d matches, oracle %d (q=%s)",
							pi, eng, scheme, len(res.Matches), len(want.Matches), q)
					}
					// The range-partitioned run must be byte-identical to
					// the sequential result, not just set-equal.
					p, err := Prepare(doc, q, mv, eng, nil)
					if err != nil {
						t.Fatalf("partition %d %v+%v: prepare: %v", pi, eng, scheme, err)
					}
					pres, err := p.RunWith(context.Background(), &RunOptions{Parallelism: k})
					if err != nil {
						t.Fatalf("partition %d %v+%v k=%d: %v", pi, eng, scheme, k, err)
					}
					if !identicalMatches(pres, res) {
						t.Fatalf("partition %d %v+%v k=%d: parallel diverged from sequential (%d vs %d matches, q=%s)",
							pi, eng, scheme, k, len(pres.Matches), len(res.Matches), q)
					}
					// Bounded entry points must reproduce the oracle page
					// [offset:offset+limit] exactly, sequentially and
					// partitioned.
					checkPages(t, fmt.Sprintf("partition %d %v+%v", pi, eng, scheme),
						p, res, pageLim, pageOff, cursors, []int{1, k})
				}
			}
			if q.IsPath() {
				tv, err := doc.MaterializeViews(views, SchemeTuple)
				if err != nil {
					t.Fatalf("partition %d tuple: materialize: %v", pi, err)
				}
				res, err := Evaluate(nil, doc, q, tv, EngineInterJoin, nil)
				if err != nil {
					t.Fatalf("partition %d IJ: %v", pi, err)
				}
				if !sameMatches(res, want) {
					t.Fatalf("partition %d IJ: %d matches, oracle %d (q=%s)",
						pi, len(res.Matches), len(want.Matches), q)
				}
				p, err := Prepare(doc, q, tv, EngineInterJoin, nil)
				if err != nil {
					t.Fatalf("partition %d IJ: prepare: %v", pi, err)
				}
				pres, err := p.RunWith(context.Background(), &RunOptions{Parallelism: k})
				if err != nil {
					t.Fatalf("partition %d IJ k=%d: %v", pi, k, err)
				}
				if !identicalMatches(pres, res) {
					t.Fatalf("partition %d IJ k=%d: parallel diverged from sequential (%d vs %d matches, q=%s)",
						pi, k, len(pres.Matches), len(res.Matches), q)
				}
				checkPages(t, fmt.Sprintf("partition %d IJ", pi), p, res, pageLim, pageOff, cursors, []int{1, k})
			}
		}

		// The no-view baseline must agree too (general-query entry point).
		res, err := EvaluateWithoutViews(nil, doc, q, EngineTwigStack, nil)
		if err != nil {
			t.Fatalf("EvaluateWithoutViews TS: %v", err)
		}
		if !sameMatches(res, want) {
			t.Fatalf("EvaluateWithoutViews TS: %d matches, oracle %d (q=%s)",
				len(res.Matches), len(want.Matches), q)
		}
	})
}

// checkPages asserts that a bounded run — sequential and range-partitioned
// — reproduces exactly the document-order slice [off:off+lim] of the full
// sequential result res (itself already oracle-checked by the caller), and
// that a run resumed after each cursor returns exactly the first lim rows of
// res that order after it.
func checkPages(t *testing.T, label string, p *PreparedQuery, res *Result, lim, off int, cursors [][]int32, ks []int) {
	t.Helper()
	want := res.Matches
	if off >= len(want) {
		want = nil
	} else {
		want = want[off:]
		if lim < len(want) {
			want = want[:lim]
		}
	}
	for _, par := range ks {
		// An offset page is the limit-off+lim page with its first off rows
		// dropped.
		ro := RunOptions{Limit: off + lim, Parallelism: par}
		pg, err := p.RunWith(context.Background(), &ro)
		if err != nil {
			t.Fatalf("%s par=%d: paged run: %v", label, par, err)
		}
		if got := pg.Matches[min(off, len(pg.Matches)):]; !samePage(got, want) {
			t.Fatalf("%s par=%d: page [%d:+%d] diverged from oracle slice (%d vs %d rows)",
				label, par, off, lim, len(pg.Matches), len(want))
		}
		for _, cur := range cursors {
			var rest [][]Node
			for _, row := range res.Matches {
				if len(rest) < lim && rowAfter(row, cur) {
					rest = append(rest, row)
				}
			}
			pg, err := p.RunWith(context.Background(), &RunOptions{Limit: lim, After: cur, Parallelism: par})
			if err != nil {
				t.Fatalf("%s par=%d after %v: %v", label, par, cur, err)
			}
			if !samePage(pg.Matches, rest) {
				t.Fatalf("%s par=%d: %d rows after cursor %v, the oracle has %d (q=%s)",
					label, par, len(pg.Matches), cur, len(rest), p.q)
			}
		}
	}
}

// rowAfter reports whether row orders strictly after the cursor: start
// labels compared lexicographically, RunOptions.After's contract.
func rowAfter(row []Node, cur []int32) bool {
	for i, n := range row {
		if n.Start != cur[i] {
			return n.Start > cur[i]
		}
	}
	return false
}

// samePage is identicalMatches over bare row slices.
func samePage(got, want [][]Node) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				return false
			}
		}
	}
	return true
}
