package viewjoin_test

import (
	"context"
	"fmt"
	"testing"

	"viewjoin"
	"viewjoin/internal/obs"
	"viewjoin/internal/workload"
)

// executorCells are the plans the executor table runs: one catalogue twig
// and one catalogue path query, under every engine, at the scale
// testdata/counters_golden.json was generated at.
func executorCells(t *testing.T) []executorCell {
	t.Helper()
	byName := map[string]workload.Query{}
	for _, wq := range workload.All() {
		byName[wq.Name] = wq
	}
	doc := viewjoin.GenerateXMark(0.25)
	var cells []executorCell
	for _, c := range []struct {
		query, combo string
		engine       viewjoin.Engine
		scheme       viewjoin.StorageScheme
	}{
		{"Q14", "VJ+LEp", viewjoin.EngineViewJoin, viewjoin.SchemeLEp},
		{"Q14", "TS+E", viewjoin.EngineTwigStack, viewjoin.SchemeElement},
		{"Q2", "PS+E", viewjoin.EnginePathStack, viewjoin.SchemeElement},
		{"Q2", "IJ+T", viewjoin.EngineInterJoin, viewjoin.SchemeTuple},
	} {
		p := prepareCatalogue(t, doc, byName[c.query], c.engine, c.scheme)
		cells = append(cells, executorCell{
			key:    c.query + "/" + c.combo,
			plan:   p,
			oracle: viewjoin.EvaluateDirect(doc, p.Query()).Matches,
		})
	}
	return cells
}

// prepareCatalogue materializes a catalogue query's views over doc in the
// scheme and prepares the query on the engine.
func prepareCatalogue(t testing.TB, doc *viewjoin.Document, wq workload.Query, eng viewjoin.Engine, scheme viewjoin.StorageScheme) *viewjoin.PreparedQuery {
	t.Helper()
	vs := make([]*viewjoin.Query, len(wq.Views))
	for i, p := range wq.Views {
		vs[i] = viewjoin.MustParseQuery(p.String())
	}
	mv, err := doc.MaterializeViews(vs, scheme)
	if err != nil {
		t.Fatalf("%s %v+%v: %v", wq.Name, eng, scheme, err)
	}
	p, err := viewjoin.Prepare(doc, viewjoin.MustParseQuery(wq.Pattern.String()), mv, eng, nil)
	if err != nil {
		t.Fatalf("%s %v+%v: %v", wq.Name, eng, scheme, err)
	}
	return p
}

type executorCell struct {
	key    string // the golden file's "query/combo" prefix
	plan   *viewjoin.PreparedQuery
	oracle [][]viewjoin.Node
}

// TestExecutorEquivalence is the one equivalence table of the executor:
// every engine × {sequential, Parallelism 3} × {full, limit, limit+offset,
// after-cursor} returns exactly the oracle's rows (or the slice of them the
// options select); the full runs additionally reproduce the golden file's
// deterministic counters, since they are the very runs it pins.
func TestExecutorEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates catalogue queries at benchmark scale")
	}
	golden := map[string]goldenRow{}
	for _, r := range readGolden(t) {
		golden[r.Key] = r
	}

	for _, c := range executorCells(t) {
		n := len(c.oracle)
		if n < 40 {
			t.Fatalf("%s: %d matches cannot exercise the page shapes", c.key, n)
		}
		cursor := cursorOf(c.oracle[n/2])
		// skip drops a prefix of the rows, as an offset does: a limit-12
		// run's rows past the fifth are the oracle's [5:12].
		shapes := []struct {
			name string
			ro   viewjoin.RunOptions
			skip int
			want [][]viewjoin.Node
		}{
			{"full", viewjoin.RunOptions{}, 0, c.oracle},
			{"limit", viewjoin.RunOptions{Limit: 7}, 0, c.oracle[:7]},
			{"limit+offset", viewjoin.RunOptions{Limit: 12}, 5, c.oracle[5:12]},
			{"after", viewjoin.RunOptions{Limit: 7, After: cursor}, 0, c.oracle[n/2+1 : n/2+8]},
		}
		for _, par := range []struct {
			name string
			k    int
		}{{"whole", 1}, {"parallel=3", 3}} {
			for _, sh := range shapes {
				name := fmt.Sprintf("%s/%s/%s", c.key, par.name, sh.name)
				ro := sh.ro
				ro.Parallelism = par.k
				res, err := c.plan.RunWith(context.Background(), &ro)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if rows := res.Matches[min(sh.skip, len(res.Matches)):]; !sameRows(rows, sh.want) {
					t.Errorf("%s: %d rows, want %d — diverged from the oracle", name, len(rows), len(sh.want))
				}
				if sh.name == "full" {
					want, pinned := golden[c.key+"/"+par.name]
					if !pinned {
						t.Fatalf("%s: no row %s/%s in %s", name, c.key, par.name, countersGoldenPath)
					}
					if have := goldenRowOf(want.Key, res); have != want {
						t.Errorf("%s:\n got  %+v\n want %+v", name, have, want)
					}
				}
			}
		}
	}
}

func sameRows(got, want [][]viewjoin.Node) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for k := range want[i] {
			if got[i][k] != want[i][k] {
				return false
			}
		}
	}
	return true
}

// TestExecutorTracesStreamedPartitions pins that partition jobs, which run
// untraced, are still observed: a traced bounded partitioned run reports
// one partition event per executed job.
func TestExecutorTracesStreamedPartitions(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates catalogue queries at benchmark scale")
	}
	for _, c := range executorCells(t)[:2] { // the engines that stop at the quota
		res, err := c.plan.RunWith(context.Background(), &viewjoin.RunOptions{
			Limit: 10, Parallelism: 3, Tracer: obs.NewRecorder(),
		})
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		if len(res.Matches) != 10 {
			t.Errorf("%s: %d rows, want 10", c.key, len(res.Matches))
		}
		if res.Trace == nil {
			t.Fatalf("%s: a Recorder run returned no trace report", c.key)
		}
		var events int64
		for _, b := range res.Trace.PartitionNanos {
			events += b.Count
		}
		if res.Stats.Partitions < 1 || events != int64(res.Stats.Partitions) {
			t.Errorf("%s: %d partition events for %d executed partitions", c.key, events, res.Stats.Partitions)
		}
	}
}
