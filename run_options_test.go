package viewjoin

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"viewjoin/internal/obs"
	"viewjoin/internal/workload"
)

// TestOnePlanManyRunOptions pins that a plan holds no per-run state. One
// plan per engine and catalogue query (VJ+LEp and TS+E on every XMark
// query, PS+E and IJ+T on the path queries), prepared once, runs under
// every RunOptions shape — none, DiskBased, a 7-row page and the page after
// it, a tracer of its own — first sequentially, then
// interleaved from GOMAXPROCS goroutines. Every run must return the rows and
// Stats (timings aside) of a solo run of a freshly prepared plan under the
// same options. A disk-based run of a windowed engine (VJ, TS) writes
// pages, and a default run of the same plan right after it writes none.
func TestOnePlanManyRunOptions(t *testing.T) {
	d := GenerateXMark(0.25)
	combos := []struct {
		eng      Engine
		scheme   StorageScheme
		pathOnly bool
	}{
		{EngineViewJoin, SchemeLEp, false},
		{EngineTwigStack, SchemeElement, false},
		{EnginePathStack, SchemeElement, true},
		{EngineInterJoin, SchemeTuple, true},
	}
	// A shape builds a fresh record per run, so a traced run brings its own
	// Recorder; cursor is the last row of the plan's first 7-row page.
	shapes := []struct {
		name string
		ro   func(cursor []int32) *RunOptions
	}{
		{"nil", func([]int32) *RunOptions { return nil }},
		{"disk", func([]int32) *RunOptions { return &RunOptions{DiskBased: true} }},
		{"page", func([]int32) *RunOptions { return &RunOptions{Limit: 7} }},
		{"next-page", func(c []int32) *RunOptions { return &RunOptions{Limit: 7, After: c} }},
		{"traced", func([]int32) *RunOptions { return &RunOptions{Tracer: obs.NewRecorder()} }},
	}
	type arm struct {
		name string
		p    *PreparedQuery
		ro   func() *RunOptions
		want *Result
	}
	ctx := context.Background()
	run := func(p *PreparedQuery, ro *RunOptions, name string) *Result {
		t.Helper()
		res, err := p.RunWith(ctx, ro)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res
	}
	var arms []arm
	windowed := map[*PreparedQuery]string{}
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
			mv, err := d.MaterializeViews(vs, c.scheme)
			if err != nil {
				t.Fatal(err)
			}
			prepare := func() *PreparedQuery {
				p, err := Prepare(d, q, mv, c.eng, nil)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			name := fmt.Sprintf("%s/%v+%v", wq.Name, c.eng, c.scheme)
			p := prepare()
			if c.eng == EngineViewJoin || c.eng == EngineTwigStack {
				windowed[p] = name
			}
			var cursor []int32
			if page := run(prepare(), &RunOptions{Limit: 7}, name); len(page.Matches) > 0 {
				for _, cell := range page.Matches[len(page.Matches)-1] {
					cursor = append(cursor, cell.Start)
				}
			}
			for _, s := range shapes {
				if s.name == "next-page" && cursor == nil {
					continue
				}
				ro := func() *RunOptions { return s.ro(cursor) }
				a := arm{name: name + "/" + s.name, p: p, ro: ro}
				a.want = run(prepare(), ro(), a.name)
				arms = append(arms, a)
			}
		}
	}

	check := func(a arm, where string) error {
		ro := a.ro()
		res, err := a.p.RunWith(ctx, ro)
		if err != nil {
			return fmt.Errorf("%s (%s): %v", a.name, where, err)
		}
		if !identicalMatches(res, a.want) {
			return fmt.Errorf("%s (%s): %d rows differ from the fresh plan's %d", a.name, where, len(res.Matches), len(a.want.Matches))
		}
		if !sameCounters(res.Stats, a.want.Stats) {
			return fmt.Errorf("%s (%s): stats %+v, fresh plan %+v", a.name, where, res.Stats, a.want.Stats)
		}
		if traced := ro != nil && ro.Tracer != nil; (res.Trace != nil) != traced {
			return fmt.Errorf("%s (%s): Trace present %v, want %v", a.name, where, res.Trace != nil, traced)
		}
		return nil
	}
	for _, a := range arms {
		if err := check(a, "sequential"); err != nil {
			t.Fatal(err)
		}
	}
	for p, name := range windowed {
		if disk := run(p, &RunOptions{DiskBased: true}, name); disk.Stats.PagesWritten == 0 {
			t.Errorf("%s: a DiskBased run wrote no pages", name)
		}
		if res := run(p, nil, name); res.Stats.PagesWritten != 0 {
			t.Errorf("%s: a default run after a DiskBased one wrote %d pages", name, res.Stats.PagesWritten)
		}
	}

	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		order := rand.New(rand.NewSource(int64(40 + w))).Perm(len(arms))
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
