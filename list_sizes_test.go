package viewjoin

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"viewjoin/internal/views"
	"viewjoin/internal/workload"
)

// TestListSizesEveryScheme holds ListSizes — the §V cost model's |L_q| —
// to the in-memory materialization's list lengths for every catalogue
// view under every scheme, whether the view was materialized fresh,
// loaded from its saved image, or maintained through an Apply: a view is
// only its store, and every store answers. A tuple store counts the
// distinct elements each column binds.
func TestListSizesEveryScheme(t *testing.T) {
	jobs := []struct {
		doc     *Document
		labels  []string
		queries []workload.Query
	}{
		{GenerateXMark(0.05),
			[]string{"item", "name", "keyword", "description", "listitem", "text", "bidder", "increase"},
			append(workload.XMarkPath(), workload.XMarkTwig()...)},
		{GenerateNasa(150),
			[]string{"dataset", "title", "field", "reference", "source", "author", "definition"},
			append(workload.NasaPath(), workload.NasaTwig()...)},
	}
	schemes := []StorageScheme{SchemeTuple, SchemeElement, SchemeLE, SchemeLEp}
	rng := rand.New(rand.NewSource(3))
	for _, job := range jobs {
		var vs []*Query
		seen := map[string]bool{}
		for _, wq := range job.queries {
			for _, v := range wq.Views {
				if !seen[v.String()] {
					seen[v.String()] = true
					vs = append(vs, &Query{v})
				}
			}
		}
		want := func(v *Query) []int { return views.MustMaterialize(job.doc.tree(), v.p).ListSizes() }
		fresh := map[StorageScheme][]*MaterializedView{}
		for _, s := range schemes {
			mvs, err := job.doc.MaterializeViews(vs, s)
			if err != nil {
				t.Fatalf("%v: %v", s, err)
			}
			fresh[s] = mvs
			for i, mv := range mvs {
				w := want(vs[i])
				requireSizes(t, fmt.Sprintf("fresh %v %s", s, vs[i]), mv, w)
				var buf bytes.Buffer
				if _, err := mv.SaveView(&buf); err != nil {
					t.Fatal(err)
				}
				loaded, err := job.doc.LoadViewBytes(buf.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				requireSizes(t, fmt.Sprintf("loaded %v %s", s, vs[i]), loaded, w)
			}
		}
		au, err := job.doc.Apply(randomDocUpdate(rng, job.doc, job.labels))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range schemes {
			maintainAll(t, fmt.Sprintf("%v", s), fresh[s], au)
			for i, mv := range fresh[s] {
				requireSizes(t, fmt.Sprintf("maintained %v %s epoch %d", s, vs[i], mv.Epoch()), mv, want(vs[i]))
			}
		}
	}
}

// TestListSizesTupleRepro is the smallest tuple view that answered [] once
// it was loaded or maintained, which made SelectViews report that the pool
// could not cover a query a fresh copy of the same view covers.
func TestListSizesTupleRepro(t *testing.T) {
	d, err := ParseDocumentString(`<r><a><b/><b/></a><a><b/></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery("//a//b")
	mv, err := d.MaterializeView(q, SchemeTuple, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSizes(t, "fresh", mv, []int{2, 3})
	var buf bytes.Buffer
	if _, err := mv.SaveView(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := d.LoadViewBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// The first ListSizes of a published state computes it: concurrent
	// first calls must all see the one answer.
	var wg sync.WaitGroup
	sizes := make([][]int, 4)
	for i := range sizes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sizes[i] = loaded.ListSizes()
		}()
	}
	wg.Wait()
	for i, got := range sizes {
		if !slices.Equal(got, []int{2, 3}) {
			t.Fatalf("loaded, concurrent call %d: ListSizes = %v, want [2 3]", i, got)
		}
	}
	frag, err := ParseDocumentString(`<a><b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	au, err := d.Apply(Update{Op: AppendChild, TargetStart: 1, Fragment: frag})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mv.Maintain(au); err != nil {
		t.Fatal(err)
	}
	requireSizes(t, "maintained", mv, []int{3, 4})
	sel, err := SelectViews([]*MaterializedView{mv}, q, DefaultLambda)
	if err != nil {
		t.Fatalf("SelectViews over a maintained tuple pool: %v", err)
	}
	if len(sel) != 1 || sel[0] != mv {
		t.Fatalf("SelectViews picked %v, want the one view", sel)
	}
}

func requireSizes(t *testing.T, label string, mv *MaterializedView, want []int) {
	t.Helper()
	got := mv.ListSizes()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: ListSizes = %v, want %v", label, got, want)
	}
	got[0] = -1 // the caller's copy: the view's answer must not change
	if again := mv.ListSizes(); !slices.Equal(again, want) {
		t.Fatalf("%s: ListSizes changed to %v after its result was written to", label, again)
	}
}
