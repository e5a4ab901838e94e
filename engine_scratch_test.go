package viewjoin

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"viewjoin/internal/vsq"
	"viewjoin/internal/workload"
)

// scratchArm is one run shape of one plan and the answer a fresh evaluator
// gives it.
type scratchArm struct {
	name string
	p    *PreparedQuery
	ro   *RunOptions
	want *Result
}

// TestEngineScratchAcrossPlans interleaves runs of plans of different
// shapes through every engine's package-level scratch pool: ViewJoin plans
// with and without query nodes removed from Q', of different sizes and
// spines, over LEp and E; TwigStack; PathStack and InterJoin on the path
// queries; each as a whole-document run, a three-way partitioned run and a
// cursor page. A pooled evaluator is re-bound to whichever plan draws it,
// so every interleaved run, in a seeded order on one goroutine and on
// GOMAXPROCS goroutines at once, must return the rows and counters of a
// solo run on an evaluator no other plan has touched.
func TestEngineScratchAcrossPlans(t *testing.T) {
	d := GenerateXMark(0.1)
	combos := []struct {
		eng      Engine
		scheme   StorageScheme
		pathOnly bool
	}{
		{EngineViewJoin, SchemeLEp, false},
		{EngineViewJoin, SchemeElement, false},
		{EngineTwigStack, SchemeElement, false},
		{EnginePathStack, SchemeElement, true},
		{EngineInterJoin, SchemeTuple, true},
	}
	ctx := context.Background()
	var arms []scratchArm
	removed := map[bool]int{} // VJ plans by whether Q' lost a node
	for _, wq := range append(workload.XMarkPath(), workload.XMarkTwig()...) {
		q := &Query{wq.Pattern}
		vs := make([]*Query, len(wq.Views))
		for i, v := range wq.Views {
			vs[i] = &Query{v}
		}
		for _, c := range combos {
			if c.pathOnly && !q.IsPath() {
				continue
			}
			if c.eng == EngineViewJoin {
				v, err := vsq.Build(wq.Pattern, wq.Views)
				if err != nil {
					t.Fatal(err)
				}
				removed[len(v.RemovedNodes()) > 0]++
			}
			mv, err := d.MaterializeViews(vs, c.scheme)
			if err != nil {
				t.Fatal(err)
			}
			p, err := Prepare(d, q, mv, c.eng, nil)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/%v+%v", wq.Name, c.eng, c.scheme)
			whole := scratchArm{name: name + "/whole", p: p}
			whole.want = soloRun(t, whole)
			arms = append(arms, whole,
				scratchArm{name: name + "/parallel=3", p: p, ro: &RunOptions{Parallelism: 3}})
			if n := len(whole.want.Matches); n > 0 {
				var cursor []int32
				for _, cell := range whole.want.Matches[n/3] {
					cursor = append(cursor, cell.Start)
				}
				arms = append(arms, scratchArm{name: name + "/page", p: p, ro: &RunOptions{Limit: 7, After: cursor}})
			}
		}
	}
	if removed[true] == 0 || removed[false] == 0 {
		t.Fatalf("ViewJoin plans with and without removed nodes: %d and %d, want both", removed[true], removed[false])
	}
	for i := range arms {
		if arms[i].want == nil {
			arms[i].want = soloRun(t, arms[i])
		}
	}

	check := func(a scratchArm, order string) error {
		res, err := a.p.RunWith(ctx, a.ro)
		if err != nil {
			return fmt.Errorf("%s (%s): %v", a.name, order, err)
		}
		if !identicalMatches(res, a.want) {
			return fmt.Errorf("%s (%s): %d rows differ from the solo run's %d", a.name, order, len(res.Matches), len(a.want.Matches))
		}
		if got, want := comparableStats(res.Stats), comparableStats(a.want.Stats); got != want {
			return fmt.Errorf("%s (%s): stats %+v, solo run %+v", a.name, order, got, want)
		}
		return nil
	}
	rng := rand.New(rand.NewSource(36))
	for round := 0; round < 3; round++ {
		for _, i := range rng.Perm(len(arms)) {
			if err := check(arms[i], fmt.Sprintf("sequential round %d", round)); err != nil {
				t.Fatal(err)
			}
		}
	}
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		order := rand.New(rand.NewSource(int64(100 + w))).Perm(len(arms))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range order {
				if err := check(arms[i], fmt.Sprintf("goroutine %d of %d", w, workers)); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// soloRun runs a on evaluators no plan has used: two collections empty
// every sync.Pool, so each engine allocates its scratch afresh.
func soloRun(t *testing.T, a scratchArm) *Result {
	t.Helper()
	runtime.GC()
	runtime.GC()
	res, err := a.p.RunWith(context.Background(), a.ro)
	if err != nil {
		t.Fatalf("%s: %v", a.name, err)
	}
	return res
}

// comparableStats drops the wall-clock fields, which no two runs share.
func comparableStats(s Stats) Stats {
	s.Duration, s.FirstMatchNanos = 0, 0
	return s
}
