package viewjoin

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"viewjoin/internal/workload"
)

// TestMaintainedViewsCountLikeFresh holds the cursor path over maintained
// views — piece tables, read through label deltas and pointer translation
// — to the cost model of a fresh materialization. After 100 mixed updates
// of XMark 0.25 and Nasa 1000, maintained through E, LE and LEp views of
// every catalogue query, each query runs over the maintained views and
// over views materialized afresh from the updated document: VJ over every
// list scheme and TS over E, whole, three-way partitioned, and paged
// through cursors. Rows and every deterministic counter must agree.
// Verify's byte identity proves only the write-out; this proves the reads.
func TestMaintainedViewsCountLikeFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("maintains and evaluates the whole catalogue at golden-file scale")
	}
	jobs := []struct {
		doc     *Document
		labels  []string
		queries []workload.Query
	}{
		{GenerateXMark(0.25),
			[]string{"item", "name", "keyword", "description", "listitem", "text", "bidder", "increase", "location", "quantity"},
			append(workload.XMarkPath(), workload.XMarkTwig()...)},
		{GenerateNasa(1000),
			[]string{"dataset", "title", "field", "reference", "source", "author", "initial", "definition"},
			append(workload.NasaPath(), workload.NasaTwig()...)},
	}
	combos := []struct {
		eng    Engine
		scheme StorageScheme
	}{
		{EngineViewJoin, SchemeElement}, {EngineViewJoin, SchemeLE}, {EngineViewJoin, SchemeLEp}, {EngineTwigStack, SchemeElement},
	}
	schemes := []StorageScheme{SchemeElement, SchemeLE, SchemeLEp}
	rng := rand.New(rand.NewSource(5))
	for _, job := range jobs {
		type arm struct {
			wq    workload.Query
			views []*Query
			mv    map[StorageScheme][]*MaterializedView
		}
		var arms []arm
		for _, wq := range job.queries {
			a := arm{wq: wq, mv: map[StorageScheme][]*MaterializedView{}}
			for _, v := range wq.Views {
				a.views = append(a.views, &Query{v})
			}
			for _, s := range schemes {
				mv, err := job.doc.MaterializeViews(a.views, s)
				if err != nil {
					t.Fatalf("%s %v: %v", wq.Name, s, err)
				}
				a.mv[s] = mv
			}
			arms = append(arms, a)
		}
		for i := 0; i < 100; i++ {
			au, err := job.doc.Apply(randomDocUpdate(rng, job.doc, job.labels))
			if err != nil {
				t.Fatalf("update %d: %v", i, err)
			}
			for _, a := range arms {
				for _, s := range schemes {
					maintainAll(t, fmt.Sprintf("update %d %s %v", i, a.wq.Name, s), a.mv[s], au)
				}
			}
		}
		pieces := 0
		for _, a := range arms {
			q := &Query{a.wq.Pattern}
			for _, c := range combos {
				label := fmt.Sprintf("%s/%v+%v", a.wq.Name, c.eng, c.scheme)
				for _, mv := range a.mv[c.scheme] {
					pieces = max(pieces, mv.NumPieces())
				}
				fresh, err := job.doc.MaterializeViews(a.views, c.scheme)
				if err != nil {
					t.Fatalf("%s: materialize: %v", label, err)
				}
				got, err := Prepare(job.doc, q, a.mv[c.scheme], c.eng, nil)
				if err != nil {
					t.Fatalf("%s: prepare: %v", label, err)
				}
				want, err := Prepare(job.doc, q, fresh, c.eng, nil)
				if err != nil {
					t.Fatalf("%s: prepare fresh: %v", label, err)
				}
				sameRun(t, label+"/whole", got, want, &RunOptions{})
				sameRun(t, label+"/parallel=3", got, want, &RunOptions{Parallelism: 3})
				var after []int32
				for page := 0; page < 3; page++ {
					res := sameRun(t, fmt.Sprintf("%s/page %d", label, page), got, want, &RunOptions{Limit: 20, After: after})
					if len(res.Matches) == 0 {
						break
					}
					after = after[:0]
					for _, n := range res.Matches[len(res.Matches)-1] {
						after = append(after, n.Start)
					}
				}
			}
		}
		if pieces < 2 {
			t.Errorf("no maintained view holds more than one piece after 100 updates: the piece path went unread")
		}
	}
}

// sameRun runs ro over both plans and fails unless rows and every
// deterministic counter agree; it returns the second plan's result.
func sameRun(t *testing.T, label string, got, want *PreparedQuery, ro *RunOptions) *Result {
	t.Helper()
	g, err := got.RunWith(context.Background(), ro)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	w, err := want.RunWith(context.Background(), ro)
	if err != nil {
		t.Fatalf("%s: fresh: %v", label, err)
	}
	counters := func(s Stats) Stats {
		s.Duration, s.FirstMatchNanos = 0, 0
		return s
	}
	if !identicalMatches(g, w) || counters(g.Stats) != counters(w.Stats) {
		t.Fatalf("%s: maintained views give %d rows, %+v; fresh views %d rows, %+v",
			label, len(g.Matches), counters(g.Stats), len(w.Matches), counters(w.Stats))
	}
	return w
}
