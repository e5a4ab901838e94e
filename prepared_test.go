package viewjoin

import (
	"context"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
)

// identicalMatches compares results exactly — same rows, in the same order,
// with the same node fields. Reusing a prepared plan must reproduce the
// one-shot evaluation bit for bit, not merely as a set.
func identicalMatches(a, b *Result) bool {
	if len(a.Matches) != len(b.Matches) {
		return false
	}
	for i := range a.Matches {
		if len(a.Matches[i]) != len(b.Matches[i]) {
			return false
		}
		for j := range a.Matches[i] {
			if a.Matches[i][j] != b.Matches[i][j] {
				return false
			}
		}
	}
	return true
}

// sameCounters compares the deterministic fields of two Stats: the whole
// counters record and the peak (everything except the wall clocks).
func sameCounters(a, b Stats) bool {
	return a.Counters == b.Counters && a.PeakMemoryBytes == b.PeakMemoryBytes
}

// preparedCase is one engine/scheme/query combination exercised by the
// plan-reuse tests, covering all four engines.
type preparedCase struct {
	name   string
	eng    Engine
	scheme StorageScheme
	query  string
	views  string
}

func preparedCases() []preparedCase {
	return []preparedCase{
		{"VJ+LEp", EngineViewJoin, SchemeLEp,
			"//site//item[//description//keyword]/name", "//site//item//name; //description//keyword"},
		{"TS+E", EngineTwigStack, SchemeElement,
			"//site//item[//description//keyword]/name", "//site//item//name; //description//keyword"},
		{"PS+E", EnginePathStack, SchemeElement,
			"//site/open_auctions/open_auction/bidder/increase", "//site//increase; //open_auctions//open_auction//bidder"},
		{"IJ+T", EngineInterJoin, SchemeTuple,
			"//site/open_auctions/open_auction/bidder/increase", "//site//increase; //open_auctions//open_auction//bidder"},
	}
}

func materializeCase(t *testing.T, d *Document, c preparedCase) (*Query, []*MaterializedView) {
	t.Helper()
	q := MustParseQuery(c.query)
	vs, err := ParseViews(c.views)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := d.MaterializeViews(vs, c.scheme)
	if err != nil {
		t.Fatal(err)
	}
	return q, mv
}

// TestPreparedReuseSequential runs the same PreparedQuery twice in a row on
// every engine and demands byte-identical matches against both the one-shot
// Evaluate and the direct-evaluation oracle — the pooled scratch state must
// leave no residue between runs.
func TestPreparedReuseSequential(t *testing.T) {
	d := GenerateXMark(0.05)
	for _, c := range preparedCases() {
		t.Run(c.name, func(t *testing.T) {
			q, mv := materializeCase(t, d, c)
			want := EvaluateDirect(d, q)
			one, err := Evaluate(nil, d, q, mv, c.eng, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !sameMatches(one, want) {
				t.Fatalf("one-shot: %d matches, oracle %d", len(one.Matches), len(want.Matches))
			}
			p, err := Prepare(d, q, mv, c.eng, nil)
			if err != nil {
				t.Fatal(err)
			}
			for run := 0; run < 2; run++ {
				res, err := p.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !identicalMatches(res, one) {
					t.Fatalf("run %d: %d matches, one-shot %d — reuse changed the result",
						run, len(res.Matches), len(one.Matches))
				}
				// Outside InterJoin nothing is charged at prepare time, so a
				// Run must reproduce the one-shot counters exactly; InterJoin
				// legitimately amortizes its view scans into Prepare.
				if c.eng != EngineInterJoin && !sameCounters(res.Stats, one.Stats) {
					t.Fatalf("run %d: counters %+v, one-shot %+v", run, res.Stats, one.Stats)
				}
				if c.eng == EngineInterJoin && res.Stats.ElementsScanned >= one.Stats.ElementsScanned {
					t.Fatalf("run %d: scanned %d, one-shot %d — prepare did not amortize the scans",
						run, res.Stats.ElementsScanned, one.Stats.ElementsScanned)
				}
			}
		})
	}
}

// TestPreparedReuseConcurrent hammers one PreparedQuery from 16 goroutines
// (two runs each) on every engine; with -race this is the proof that the
// per-plan scratch pools isolate concurrent executions.
func TestPreparedReuseConcurrent(t *testing.T) {
	d := GenerateXMark(0.05)
	for _, c := range preparedCases() {
		t.Run(c.name, func(t *testing.T) {
			q, mv := materializeCase(t, d, c)
			one, err := Evaluate(nil, d, q, mv, c.eng, nil)
			if err != nil {
				t.Fatal(err)
			}
			p, err := Prepare(d, q, mv, c.eng, nil)
			if err != nil {
				t.Fatal(err)
			}
			const goroutines = 16
			errs := make([]error, goroutines)
			results := make([]*Result, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for run := 0; run < 2; run++ {
						res, err := p.Run()
						if err != nil {
							errs[g] = err
							return
						}
						results[g] = res
					}
				}(g)
			}
			wg.Wait()
			for g := 0; g < goroutines; g++ {
				if errs[g] != nil {
					t.Fatalf("goroutine %d: %v", g, errs[g])
				}
				if !identicalMatches(results[g], one) {
					t.Fatalf("goroutine %d: %d matches, one-shot %d",
						g, len(results[g].Matches), len(one.Matches))
				}
			}
		})
	}
}

// TestHugeLimitIsNoQuota pins that a limit no page can reach runs like no
// limit at all. PathStack and InterJoin shrink their accumulation — sort and
// re-copy everything kept — whenever it passes a multiple of the quota, and
// that multiple used to overflow for Limit >= 1<<62, so every leaf push
// shrank. Allocations stand in for wall time: every spurious shrink
// allocates, so the bounded run must stay within a constant of the
// unbounded one instead of growing with the match count.
func TestHugeLimitIsNoQuota(t *testing.T) {
	d := GenerateXMark(0.25)
	for _, c := range preparedCases() {
		q, mv := materializeCase(t, d, c)
		p, err := Prepare(d, q, mv, c.eng, nil)
		if err != nil {
			t.Fatal(err)
		}
		full, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		allocs := func(limit int) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := p.RunWith(context.Background(), &RunOptions{Limit: limit}); err != nil {
					t.Fatal(err)
				}
			})
		}
		for _, limit := range []int{1 << 62, math.MaxInt} {
			res, err := p.RunWith(context.Background(), &RunOptions{Limit: limit})
			if err != nil {
				t.Fatalf("%s limit=%d: %v", c.name, limit, err)
			}
			if !identicalMatches(res, full) {
				t.Errorf("%s limit=%d: %d rows, want the unbounded run's %d", c.name, limit, len(res.Matches), len(full.Matches))
			}
			if raceEnabled {
				continue // race-detector instrumentation changes allocation counts
			}
			if got, unbounded := allocs(limit), allocs(0); got > unbounded+8 {
				t.Errorf("%s limit=%d: %.0f allocations a run over %d rows, %.0f unbounded", c.name, limit, got, len(full.Matches), unbounded)
			}
		}
	}
}

// preparedRunAllocCeiling pins the allocation cost of a warm
// PreparedQuery.Run on the standard workload (289 matches): the Result,
// five geometric row chunks, the chunk list's doublings and the header
// slice (measured: 11). It must stay strictly below the
// one-shot Evaluate ceiling (noopTraceAllocCeiling) — the pooled path
// exists to shed the per-call plan and scratch allocations.
const preparedRunAllocCeiling = 24

// TestPreparedRunAllocations asserts the pooled Run path allocates strictly
// less than one-shot Evaluate and stays under its own pinned ceiling.
func TestPreparedRunAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation changes allocation counts")
	}
	d, q, mv := noopWorkload(t)
	p, err := Prepare(d, q, mv, EngineViewJoin, nil)
	if err != nil {
		t.Fatal(err)
	}
	runAllocs := testing.AllocsPerRun(5, func() {
		if _, err := p.Run(); err != nil {
			t.Fatal(err)
		}
	})
	evalAllocs := testing.AllocsPerRun(5, func() {
		if _, err := Evaluate(nil, d, q, mv, EngineViewJoin, nil); err != nil {
			t.Fatal(err)
		}
	})
	if runAllocs >= evalAllocs {
		t.Errorf("prepared Run allocates %.0f times, one-shot Evaluate %.0f — pooling must be strictly cheaper",
			runAllocs, evalAllocs)
	}
	if runAllocs > preparedRunAllocCeiling {
		t.Errorf("prepared Run allocates %.0f times, ceiling %d", runAllocs, preparedRunAllocCeiling)
	}
}

// largeResultAllocCeiling bounds a warm Run returning thousands of rows, on
// every engine: a handful of fixed wrappers, the row chunks (doubling up to
// 64 KiB, then one per 64 KiB of rows), the chunk list's doublings and the
// one header slice — and, for InterJoin, its intermediate streams' arenas.
// Measured on XMark 1.5: VJ/TS 21 at 8726 matches, PS 21 and IJ 57 at 5425;
// a per-match allocation would show as thousands.
const largeResultAllocCeiling = 96

// TestRunAllocationsDoNotGrowWithMatches runs each engine over a small and
// a 30x larger XMark document and checks that the allocation count follows
// the chunk geometry, not the match count.
func TestRunAllocationsDoNotGrowWithMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation changes allocation counts")
	}
	small, large := GenerateXMark(0.05), GenerateXMark(1.5)
	for _, c := range preparedCases() {
		measure := func(d *Document) (matches int, allocs float64) {
			q, mv := materializeCase(t, d, c)
			p, err := Prepare(d, q, mv, c.eng, nil)
			if err != nil {
				t.Fatal(err)
			}
			// A collection that starts inside a run empties the engines'
			// sync.Pools, and the run's next Get or Put rebuilds each one's
			// per-P array: allocations of the collector's timing, not of
			// the run. Collect first, let AllocsPerRun's warm-up run do the
			// rebuilding, and take the smallest of five such samples.
			allocs = math.Inf(1)
			for i := 0; i < 5; i++ {
				runtime.GC()
				allocs = min(allocs, testing.AllocsPerRun(1, func() {
					res, err := p.Run()
					if err != nil {
						t.Fatal(err)
					}
					matches = len(res.Matches)
				}))
			}
			return matches, allocs
		}
		fewMatches, fewAllocs := measure(small)
		manyMatches, manyAllocs := measure(large)
		if manyMatches < 4000 || manyMatches < 10*fewMatches {
			t.Fatalf("%s: %d and %d matches do not separate the two sizes", c.name, fewMatches, manyMatches)
		}
		if manyAllocs > largeResultAllocCeiling {
			t.Errorf("%s: %d matches cost %.0f allocations, ceiling %d", c.name, manyMatches, manyAllocs, largeResultAllocCeiling)
		}
		if grown := manyAllocs - fewAllocs; grown > float64(manyMatches-fewMatches)/100 {
			t.Errorf("%s: %d -> %d matches grew allocations %.0f -> %.0f: more than one per hundred rows",
				c.name, fewMatches, manyMatches, fewAllocs, manyAllocs)
		}
		// The window-collector engines hold their enumeration scratch in
		// the engine's pool: once a run has grown it, a run allocates its
		// result and a fixed remainder that does not know how large the
		// window was (the Result; the job's counters and IO are recycled
		// through the executor's pool).
		if c.eng == EngineViewJoin || c.eng == EngineTwigStack {
			width := MustParseQuery(c.query).NumNodes()
			few, many := fewAllocs-resultAllocs(fewMatches, width), manyAllocs-resultAllocs(manyMatches, width)
			if few != many || many > warmRunFixedAllocs {
				t.Errorf("%s: beside its result a warm run allocated %.0f times at %d matches and %.0f at %d, want %d at both: enumeration scratch is being allocated per run",
					c.name, few, fewMatches, many, manyMatches, warmRunFixedAllocs)
			}
		}
	}
	// Scratch belongs to the engine, not the plan: when warm plan A runs
	// again after plan B, of another shape, drew the same pooled evaluator
	// on this goroutine, A still allocates only its result — re-binding the
	// evaluator neither regrows its scratch nor allocates a closure.
	for _, eng := range []Engine{EngineViewJoin, EngineTwigStack} {
		prepare := func(query, views string) *PreparedQuery {
			q, mv := materializeCase(t, small, preparedCase{eng: eng, scheme: SchemeLEp, query: query, views: views})
			p, err := Prepare(small, q, mv, eng, nil)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		a := prepare("//site//item[//description//keyword]/name", "//site//item//name; //description//keyword")
		b := prepare("//site/open_auctions/open_auction/bidder/increase", "//site//increase; //open_auctions//open_auction//bidder")
		run := func(p *PreparedQuery) int {
			res, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			return len(res.Matches)
		}
		matches, allocs := 0, uint64(math.MaxUint64)
		for i := 0; i < 5; i++ { // smallest of five, as above
			runtime.GC()
			run(a)
			run(b)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			matches = run(a)
			runtime.ReadMemStats(&m1)
			allocs = min(allocs, m1.Mallocs-m0.Mallocs)
		}
		want := resultAllocs(matches, a.Query().NumNodes()) + warmRunFixedAllocs
		if float64(allocs) != want {
			t.Errorf("%v: plan A after plan B allocated %d times for %d matches, want %.0f: its result and %d more",
				eng, allocs, matches, want, warmRunFixedAllocs)
		}
	}
}

// warmRunFixedAllocs is what a warm VJ or TS run allocates beside its
// result (measured: exactly this).
const warmRunFixedAllocs = 1

// resultAllocs is what handing over a result of the given shape allocates:
// its chunks (engine.Rows: 16 rows doubling up to 64 KiB of 12-byte cells),
// the chunk list as append grows it, and the header slice.
func resultAllocs(rows, width int) float64 {
	chunks := 0
	for next := 16; rows > 0; next *= 2 {
		rows -= min(next, 64<<10/12/width)
		chunks++
	}
	list := 0
	for c := 1; c < 2*chunks; c *= 2 {
		list++
	}
	return float64(chunks + list + 1)
}

// scannableHeap returns the bytes of live heap the garbage collector must
// trace, as of a collection run now.
func scannableHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestResultCellsAreNotScanned holds a large result of every engine and
// checks what it adds to the heap the garbage collector traces: the row
// headers (24 bytes a row), not the cells, which are pointer-free and so
// live in chunks the collector never scans. Measured at XMark 1: 25 bytes a
// row on every engine; cells carrying a tag string made it 194-196 for these
// 5-node rows.
func TestResultCellsAreNotScanned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation changes what is allocated")
	}
	d := GenerateXMark(1)
	for _, c := range preparedCases() {
		q, mv := materializeCase(t, d, c)
		p, err := Prepare(d, q, mv, c.eng, nil)
		if err != nil {
			t.Fatal(err)
		}
		before := scannableHeap()
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		grown := int64(scannableHeap()) - int64(before)
		rows := len(res.Matches)
		cells := int64(rows * q.NumNodes() * 12)
		if rows < 1000 || grown > int64(rows)*64 {
			t.Errorf("%s: holding %d rows (%d bytes of cells) grew the scanned heap by %d bytes, want at most 64 a row",
				c.name, rows, cells, grown)
		}
		runtime.KeepAlive(res)
	}
}

// TestResultRowsDoNotAlias pins the ownership contract of Result.Matches:
// neighbouring rows share a chunk of cells, yet appending to a row or
// mutating it never changes another row (rows are capacity-capped), and a
// second Run of the same plan writes fresh chunks instead of recycling the
// first Result's — on every engine, whole and paged.
func TestResultRowsDoNotAlias(t *testing.T) {
	d := GenerateXMark(0.05)
	for _, c := range preparedCases() {
		q, mv := materializeCase(t, d, c)
		p, err := Prepare(d, q, mv, c.eng, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, mode := range []struct {
			name string
			run  func() (*Result, error)
		}{
			{"Run", p.Run},
			{"paged", func() (*Result, error) { // rows [3:23], a limit-23 run's past its third
				res, err := p.RunWith(nil, &RunOptions{Limit: 23})
				if err == nil {
					res.Matches = res.Matches[min(3, len(res.Matches)):]
				}
				return res, err
			}},
		} {
			res, err := mode.run()
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, mode.name, err)
			}
			if len(res.Matches) < 2 {
				t.Fatalf("%s %s: %d rows cannot show aliasing", c.name, mode.name, len(res.Matches))
			}
			want := make([][]Node, len(res.Matches))
			for i, row := range res.Matches {
				want[i] = append([]Node(nil), row...)
			}
			for i := 0; i < len(res.Matches); i += 2 {
				row := res.Matches[i]
				if cap(row) != len(row) {
					t.Fatalf("%s %s: row %d has len %d, cap %d: an append would overwrite its neighbour",
						c.name, mode.name, i, len(row), cap(row))
				}
				grown := append(row, Node{Start: -1})
				grown[0].Level = -1
				for k := range row {
					row[k].Start = -7
				}
			}
			again, err := mode.run()
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, mode.name, err)
			}
			for i := range want {
				if i%2 == 1 {
					for k := range want[i] {
						if res.Matches[i][k] != want[i][k] {
							t.Fatalf("%s %s: row %d changed when its neighbours were mutated", c.name, mode.name, i)
						}
					}
				}
				for k := range want[i] {
					if again.Matches[i][k] != want[i][k] {
						t.Fatalf("%s %s: a second run returned row %d = %v, want %v (chunks recycled?)",
							c.name, mode.name, i, again.Matches[i], want[i])
					}
				}
			}
		}
	}
}

// TestMaterializeViewsParallelDeterminism checks that the concurrent
// MaterializeViews produces exactly the per-view results of sequential
// MaterializeView calls, in input order.
func TestMaterializeViewsParallelDeterminism(t *testing.T) {
	d := GenerateXMark(0.05)
	vs, err := ParseViews("//site//item//name; //description//keyword; //open_auctions//open_auction//bidder; //site//increase; //people; //regions")
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []StorageScheme{SchemeTuple, SchemeElement, SchemeLE, SchemeLEp} {
		got, err := d.MaterializeViews(vs, scheme)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if len(got) != len(vs) {
			t.Fatalf("%v: %d views, want %d", scheme, len(got), len(vs))
		}
		for i, v := range vs {
			want, err := d.MaterializeView(v, scheme, nil)
			if err != nil {
				t.Fatalf("%v %s: %v", scheme, v, err)
			}
			if got[i].Pattern().String() != v.String() {
				t.Fatalf("%v slot %d holds %s, want %s — output order must match input order",
					scheme, i, got[i].Pattern(), v)
			}
			if got[i].SizeBytes() != want.SizeBytes() ||
				got[i].NumEntries() != want.NumEntries() ||
				got[i].NumPointers() != want.NumPointers() {
				t.Fatalf("%v %s: parallel (%d bytes, %d entries, %d ptrs) != sequential (%d, %d, %d)",
					scheme, v, got[i].SizeBytes(), got[i].NumEntries(), got[i].NumPointers(),
					want.SizeBytes(), want.NumEntries(), want.NumPointers())
			}
		}
	}
}

// BenchmarkPreparedRun measures the steady-state serving cost of a reused
// plan; compare with BenchmarkEvaluateUntraced for the amortized planning
// overhead.
func BenchmarkPreparedRun(b *testing.B) {
	d, q, mv := noopWorkload(b)
	p, err := Prepare(d, q, mv, EngineViewJoin, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
