package viewjoin

import (
	"testing"

	"viewjoin/internal/obs"
)

// noopTraceAllocCeiling bounds the allocation cost of an untraced Evaluate
// on the standard workload below: Prepare's plan and scratch plus a Run's
// handful (BenchmarkEvaluateUntraced: 57 allocs/op). A traced run, which
// also describes the plan and builds a Report, takes 79, so the ceiling
// fails a disabled path that describes the plan anyway, as well as any
// per-record cost. The store cursors and engines hold no Recorder, so the
// only hooks on this path are the executor's and the collector's phase
// spans.
const noopTraceAllocCeiling = 64

func noopWorkload(t testing.TB) (*Document, *Query, []*MaterializedView) {
	t.Helper()
	d := GenerateXMark(0.05)
	q := MustParseQuery("//site//item[//description//keyword]/name")
	vs, err := ParseViews("//site//item//name; //description//keyword")
	if err != nil {
		t.Fatal(err)
	}
	mv, err := d.MaterializeViews(vs, SchemeLEp)
	if err != nil {
		t.Fatal(err)
	}
	return d, q, mv
}

// TestNoopTracerAllocations asserts that leaving RunOptions.Tracer nil
// keeps Evaluate at its pre-observability allocation count: the tracing
// hooks must cost nothing when disabled.
func TestNoopTracerAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow")
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	d, q, mv := noopWorkload(t)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Evaluate(nil, d, q, mv, EngineViewJoin, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > noopTraceAllocCeiling {
		t.Errorf("untraced Evaluate allocates %.0f times, ceiling %d — the disabled tracing path must not allocate",
			allocs, noopTraceAllocCeiling)
	}
}

// BenchmarkEvaluateUntraced and BenchmarkEvaluateTraced compare the hot
// path with tracing off and on; `go test -bench Evaluate -benchmem .`
// shows the overhead tracing is allowed to cost only when requested.
func BenchmarkEvaluateUntraced(b *testing.B) {
	d, q, mv := noopWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(nil, d, q, mv, EngineViewJoin, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateTraced(b *testing.B) {
	d, q, mv := noopWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := obs.NewRecorder()
		if _, err := Evaluate(nil, d, q, mv, EngineViewJoin, &RunOptions{Tracer: rec}); err != nil {
			b.Fatal(err)
		}
	}
}
