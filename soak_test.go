package viewjoin

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"viewjoin/internal/testutil"
	"viewjoin/internal/tpq"
	"viewjoin/internal/workload"
)

// soakKs is the parallelism grid every metamorphic check runs under: the
// sequential degenerate case, small Ks that stress chunk boundaries, and
// the machine's own width.
func soakKs() []int {
	ks := []int{1, 2, 3}
	if n := runtime.NumCPU(); n > 3 {
		ks = append(ks, n)
	}
	return ks
}

// checkParallelEquivalence asserts the partitioned path reproduces the
// sequential result byte for byte — same matches, same order, same node
// fields — for every K in the soak grid.
func checkParallelEquivalence(t *testing.T, label string, p *PreparedQuery, seq *Result) {
	t.Helper()
	for _, k := range soakKs() {
		par, err := p.RunWith(context.Background(), &RunOptions{Parallelism: k})
		if err != nil {
			t.Fatalf("%s: Parallelism %d: %v", label, k, err)
		}
		if !identicalMatches(par, seq) {
			t.Fatalf("%s: Parallelism %d diverges from Run: %d vs %d matches",
				label, k, len(par.Matches), len(seq.Matches))
		}
		if par.Stats.Partitions < 1 {
			t.Fatalf("%s: Parallelism %d reported %d partitions", label, k, par.Stats.Partitions)
		}
	}
}

// checkPagedEquivalence asserts bounded runs (sequential and partitioned)
// reproduce document-order slices of the sequential result under every K in
// the soak grid: a leading page, an interior page, and a page straddling the
// end of the result.
func checkPagedEquivalence(t *testing.T, label string, p *PreparedQuery, seq *Result) {
	t.Helper()
	n := len(seq.Matches)
	tail := n - 2
	if tail < 0 {
		tail = 0
	}
	pages := [][2]int{{3, 0}, {5, n / 2}, {4, tail}}
	for _, pg := range pages {
		checkPages(t, label, p, seq, pg[0], pg[1], nil, soakKs())
	}
}

// soakCase is one engine/scheme pairing of the workload soak; together the
// four cover every engine and every storage scheme.
type soakCase struct {
	eng    Engine
	scheme StorageScheme
	path   bool // engine only handles path queries
}

func soakCases() []soakCase {
	return []soakCase{
		{EngineViewJoin, SchemeLEp, false},
		{EngineTwigStack, SchemeLE, false},
		{EnginePathStack, SchemeElement, true},
		{EngineInterJoin, SchemeTuple, true},
	}
}

// TestParallelWorkloadEquivalence is the workload half of the metamorphic
// soak: every §VI benchmark query on xmark and nasa, on all four engines,
// must produce byte-identical results from partitioned and sequential runs
// for K ∈ {1, 2, 3, NumCPU} — and the sequential result must agree with
// the brute-force oracle, anchoring both sides of the equivalence.
func TestParallelWorkloadEquivalence(t *testing.T) {
	type job struct {
		doc     *Document
		queries []workload.Query
	}
	jobs := []job{
		{GenerateXMark(0.05), append(workload.XMarkPath(), workload.XMarkTwig()...)},
		{GenerateNasa(200), append(workload.NasaPath(), workload.NasaTwig()...)},
	}
	for _, job := range jobs {
		for _, wq := range job.queries {
			q := &Query{wq.Pattern}
			want := EvaluateDirect(job.doc, q)
			views := make([]*Query, len(wq.Views))
			for i, v := range wq.Views {
				views[i] = &Query{v}
			}
			for _, c := range soakCases() {
				if c.path && !wq.Path {
					continue
				}
				label := fmt.Sprintf("%s/%v+%v", wq.Name, c.eng, c.scheme)
				mv, err := job.doc.MaterializeViews(views, c.scheme)
				if err != nil {
					t.Fatalf("%s: materialize: %v", label, err)
				}
				p, err := Prepare(job.doc, q, mv, c.eng, nil)
				if err != nil {
					t.Fatalf("%s: prepare: %v", label, err)
				}
				seq, err := p.Run()
				if err != nil {
					t.Fatalf("%s: run: %v", label, err)
				}
				if !sameMatches(seq, want) {
					t.Fatalf("%s: sequential run disagrees with oracle: %d vs %d matches",
						label, len(seq.Matches), len(want.Matches))
				}
				checkParallelEquivalence(t, label, p, seq)
				checkPagedEquivalence(t, label, p, seq)
			}
		}
	}
}

// TestParallelGeneratedSoak is the generated half of the soak: seeded
// random documents with stated shape bounds, random TPQs, and random
// covering view partitions, checked against the oracle sequentially and
// against the sequential result under every K. Small documents make every
// partition-plan shape reachable — single top-level subtree, doc-root
// matches, empty chunks, K larger than the subtree count.
func TestParallelGeneratedSoak(t *testing.T) {
	iterations := 60
	if testing.Short() {
		iterations = 10
	}
	rng := rand.New(rand.NewSource(5))
	shapes := []testutil.DocShape{
		{MaxNodes: 30, MaxDepth: 4, MaxFanout: 2},  // deep and narrow
		{MaxNodes: 80, MaxDepth: 3, MaxFanout: 40}, // shallow and wide
		{MaxNodes: 150, MaxDepth: 10},              // default mix
	}
	for it := 0; it < iterations; it++ {
		doc := newDocument(testutil.RandomDocShaped(rng, shapes[it%len(shapes)], nil))
		pat := testutil.RandomPattern(rng, 4, nil)
		q := &Query{pat}
		want := EvaluateDirect(doc, q)
		partitions := [][]*tpq.Pattern{
			testutil.RandomViewPartition(rng, pat),
			testutil.WholeQueryView(pat),
		}
		for pi, part := range partitions {
			views := make([]*Query, len(part))
			for i, vp := range part {
				views[i] = &Query{vp}
			}
			for _, c := range soakCases() {
				if c.path && !q.IsPath() {
					continue
				}
				label := fmt.Sprintf("it=%d part=%d %v+%v q=%s", it, pi, c.eng, c.scheme, q)
				mv, err := doc.MaterializeViews(views, c.scheme)
				if err != nil {
					t.Fatalf("%s: materialize: %v", label, err)
				}
				p, err := Prepare(doc, q, mv, c.eng, nil)
				if err != nil {
					t.Fatalf("%s: prepare: %v", label, err)
				}
				seq, err := p.Run()
				if err != nil {
					t.Fatalf("%s: run: %v", label, err)
				}
				if !sameMatches(seq, want) {
					t.Fatalf("%s: sequential run disagrees with oracle: %d vs %d matches",
						label, len(seq.Matches), len(want.Matches))
				}
				checkParallelEquivalence(t, label, p, seq)
				checkPagedEquivalence(t, label, p, seq)
			}
		}
	}
}
