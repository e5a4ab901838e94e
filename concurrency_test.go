package viewjoin

import (
	"sync"
	"testing"
)

// TestConcurrentEvaluation: a Document and its materialized views are
// immutable after construction and safe for parallel query evaluation
// (each Evaluate call owns its cursors and counters). Run with -race.
func TestConcurrentEvaluation(t *testing.T) {
	d := GenerateXMark(0.05)
	q := MustParseQuery("//site//item[//description//keyword]/name")
	vs, err := ParseViews("//site//item//name; //description//keyword")
	if err != nil {
		t.Fatal(err)
	}
	mv, err := d.MaterializeViews(vs, SchemeLE)
	if err != nil {
		t.Fatal(err)
	}
	want := -1

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	counts := make(chan int, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eng := []Engine{EngineViewJoin, EngineTwigStack}[i%2]
			res, err := Evaluate(nil, d, q, mv, eng, &RunOptions{DiskBased: i%4 == 0})
			if err != nil {
				errs <- err
				return
			}
			counts <- len(res.Matches)
		}(i)
	}
	wg.Wait()
	close(errs)
	close(counts)
	for err := range errs {
		t.Fatal(err)
	}
	for c := range counts {
		if want == -1 {
			want = c
		} else if c != want {
			t.Fatalf("concurrent runs disagree: %d vs %d", c, want)
		}
	}
}

// TestConcurrentMaterialization: parallel materialization over one shared
// document (the lazy type/start indexes must be race-free).
func TestConcurrentMaterialization(t *testing.T) {
	d := GenerateNasa(120)
	patterns := []string{"//field//para", "//dataset//definition", "//journal//lastname", "//revision//para"}
	var wg sync.WaitGroup
	errs := make(chan error, len(patterns)*4)
	for i := 0; i < 4; i++ {
		for _, p := range patterns {
			wg.Add(1)
			go func(p string) {
				defer wg.Done()
				v := MustParseQuery(p)
				if _, err := d.MaterializeView(v, SchemeLEp, nil); err != nil {
					errs <- err
				}
			}(p)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
