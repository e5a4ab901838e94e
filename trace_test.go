package viewjoin

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"viewjoin/internal/obs"
)

// traceFixture materializes the README's running example and returns the
// pieces a trace test needs.
func traceFixture(t testing.TB, scheme StorageScheme) (*Document, *Query, []*MaterializedView) {
	t.Helper()
	d := sampleDoc(t)
	q := MustParseQuery("//a[//f]//b//e")
	vs, err := ParseViews("//a//e; //b; //f")
	if err != nil {
		t.Fatal(err)
	}
	mv, err := d.MaterializeViews(vs, scheme)
	if err != nil {
		t.Fatal(err)
	}
	return d, q, mv
}

func TestEvaluateTraceReport(t *testing.T) {
	d, q, mv := traceFixture(t, SchemeLEp)
	rec := obs.NewRecorder()
	res, err := Evaluate(nil, d, q, mv, EngineViewJoin, &RunOptions{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Trace
	if rep == nil {
		t.Fatal("Result.Trace not populated despite Recorder tracer")
	}
	if rep.Schema != obs.ReportSchema {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.Plan == nil || rep.Plan.Query != q.String() || rep.Plan.Engine != "VJ" || rep.Plan.Scheme != "LEp" {
		t.Errorf("plan missing or wrong: %+v", rep.Plan)
	}
	if len(rep.Plan.Views) != 3 || rep.Plan.NumSegments == 0 {
		t.Errorf("plan views/segments: %+v", rep.Plan)
	}
	if len(rep.Plan.Nodes) != q.NumNodes() {
		t.Fatalf("plan has %d nodes, want %d", len(rep.Plan.Nodes), q.NumNodes())
	}
	for qi, n := range rep.Plan.Nodes {
		if n.View < 0 || n.ViewNode < 0 {
			t.Errorf("node %d unbound: %+v", qi, n)
		}
		if n.ListEntries < 0 {
			t.Errorf("node %d list entries unknown", qi)
		}
	}
	// The trace counters must equal the public stats.
	if rep.Counters.ElementsScanned != res.Stats.ElementsScanned ||
		rep.Counters.PagesRead != res.Stats.PagesRead ||
		rep.Counters.Matches != int64(len(res.Matches)) {
		t.Errorf("trace counters disagree with stats: %+v vs %+v", rep.Counters, res.Stats)
	}
	// Per-node scans must sum to the global counter.
	var scanned int64
	for _, n := range rep.Nodes {
		scanned += n.Scanned
	}
	if scanned != res.Stats.ElementsScanned {
		t.Errorf("per-node scans %d != total %d", scanned, res.Stats.ElementsScanned)
	}
	if res.Stats.PagesRead == 0 {
		t.Errorf("no page read recorded")
	}
	// Phase durations: evaluate and output must have run.
	phase := make(map[string]int64)
	for _, p := range rep.Phases {
		phase[p.Phase] = p.Nanos
	}
	for _, name := range []string{"segment", "evaluate"} {
		if _, ok := phase[name]; !ok {
			t.Errorf("phase %q missing from report", name)
		}
	}
	if rep.DurationNanos <= 0 {
		t.Errorf("non-positive total duration")
	}
}

func TestEvaluateTraceAllEngines(t *testing.T) {
	want := func() int {
		d, q, mv := traceFixture(t, SchemeLEp)
		res, err := Evaluate(nil, d, q, mv, EngineViewJoin, nil)
		if err != nil {
			t.Fatal(err)
		}
		_ = d
		_ = mv
		return len(res.Matches)
	}()
	for _, tc := range []struct {
		eng    Engine
		scheme StorageScheme
	}{
		{EngineViewJoin, SchemeLEp},
		{EngineViewJoin, SchemeLE},
		{EngineViewJoin, SchemeElement},
		{EngineTwigStack, SchemeElement},
	} {
		d, q, mv := traceFixture(t, tc.scheme)
		rec := obs.NewRecorder()
		res, err := Evaluate(nil, d, q, mv, tc.eng, &RunOptions{Tracer: rec})
		if err != nil {
			t.Fatalf("%v+%v: %v", tc.eng, tc.scheme, err)
		}
		if len(res.Matches) != want {
			t.Errorf("%v+%v traced: %d matches, want %d (tracing changed results!)",
				tc.eng, tc.scheme, len(res.Matches), want)
		}
		if res.Trace == nil || res.Trace.Plan == nil {
			t.Errorf("%v+%v: no trace", tc.eng, tc.scheme)
		}
	}
}

// TestNilRecorderRunsUntraced passes a nil *obs.Recorder through every
// entry point that takes a tracer: each run must behave exactly like one
// with no tracer — same rows, same deterministic Stats, no Trace.
func TestNilRecorderRunsUntraced(t *testing.T) {
	d, q, mv := traceFixture(t, SchemeLEp)
	var nilRec *obs.Recorder
	prepared := func() *PreparedQuery {
		p, err := Prepare(d, q, mv, EngineViewJoin, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct {
		name     string
		run, ref func() (*Result, error)
	}{
		{"Evaluate",
			func() (*Result, error) { return Evaluate(nil, d, q, mv, EngineViewJoin, &RunOptions{Tracer: nilRec}) },
			func() (*Result, error) { return Evaluate(nil, d, q, mv, EngineViewJoin, nil) }},
		{"EvaluateWithoutViews",
			func() (*Result, error) {
				return EvaluateWithoutViews(nil, d, q, EngineTwigStack, &RunOptions{Tracer: nilRec})
			},
			func() (*Result, error) { return EvaluateWithoutViews(nil, d, q, EngineTwigStack, nil) }},
		{"RunWith",
			func() (*Result, error) { return prepared().RunWith(context.Background(), &RunOptions{Tracer: nilRec}) },
			func() (*Result, error) { return prepared().RunWith(context.Background(), &RunOptions{}) }},
		{"RunTraced",
			func() (*Result, error) { return prepared().RunTraced(context.Background(), 1, nilRec) },
			func() (*Result, error) { return prepared().RunTraced(context.Background(), 1, nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			want, err := tc.ref()
			if err != nil {
				t.Fatal(err)
			}
			if got.Trace != nil {
				t.Errorf("nil recorder filled Result.Trace")
			}
			if !reflect.DeepEqual(got.Matches, want.Matches) {
				t.Errorf("rows differ: %v, want %v", got.Matches, want.Matches)
			}
			gs, ws := got.Stats, want.Stats
			gs.Duration, gs.FirstMatchNanos = 0, 0
			ws.Duration, ws.FirstMatchNanos = 0, 0
			if gs != ws {
				t.Errorf("stats differ: %+v, want %+v", gs, ws)
			}
		})
	}
}

func TestEvaluateTracePathEngines(t *testing.T) {
	d := sampleDoc(t)
	q := MustParseQuery("//a//b//c")
	vs, _ := ParseViews("//a//c; //b")
	want := EvaluateDirect(d, q)

	mv, err := d.MaterializeViews(vs, SchemeElement)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	res, err := Evaluate(nil, d, q, mv, EnginePathStack, &RunOptions{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != len(want.Matches) || res.Trace == nil || res.Trace.Plan.Engine != "PS" {
		t.Errorf("PathStack traced run wrong: %d matches, trace %v", len(res.Matches), res.Trace)
	}

	tv, err := d.MaterializeViews(vs, SchemeTuple)
	if err != nil {
		t.Fatal(err)
	}
	rec = obs.NewRecorder()
	res, err = Evaluate(nil, d, q, tv, EngineInterJoin, &RunOptions{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != len(want.Matches) || res.Trace == nil || res.Trace.Plan.Engine != "IJ" {
		t.Errorf("InterJoin traced run wrong: %d matches", len(res.Matches))
	}
	if res.Trace.Plan.Scheme != "T" {
		t.Errorf("InterJoin plan scheme = %q, want T", res.Trace.Plan.Scheme)
	}
}

func TestEvaluateWithoutViewsTrace(t *testing.T) {
	d := sampleDoc(t)
	q, err := ParseQueryGeneral("//a//b//e")
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	res, err := EvaluateWithoutViews(nil, d, q, EngineTwigStack, &RunOptions{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Plan == nil {
		t.Fatal("no trace from EvaluateWithoutViews")
	}
	if res.Trace.Plan.Scheme != "E" || len(res.Trace.Plan.Views) != 3 {
		t.Errorf("raw-stream plan wrong: %+v", res.Trace.Plan)
	}
}

func TestTraceJumpEventsOnLinkedScheme(t *testing.T) {
	// On a larger document with LEp views, ViewJoin must actually take or
	// refuse pointer jumps, and those must show up in the trace.
	d := GenerateXMark(0.02)
	q := MustParseQuery("//site//item[//description//keyword]/name")
	vs, err := ParseViews("//site//item//name; //description//keyword")
	if err != nil {
		t.Fatal(err)
	}
	mv, err := d.MaterializeViews(vs, SchemeLEp)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	res, err := Evaluate(nil, d, q, mv, EngineViewJoin, &RunOptions{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Trace
	ev := make(map[string]int64)
	for _, e := range rep.Events {
		ev[e.Event] = e.Count
	}
	if ev["scan"] == 0 || ev["cursorAdvance"] == 0 {
		t.Errorf("no scan/advance events: %v", ev)
	}
	if ev["jumpTaken"]+ev["jumpRefused"] == 0 {
		t.Errorf("no jump activity traced on LEp: %v", ev)
	}
	if ev["jumpTaken"] > 0 && len(rep.JumpSkipPages) == 0 {
		t.Errorf("jumps taken but skip histogram empty")
	}
	if ev["jumpTaken"] != res.Stats.PointerDerefs {
		// Jumps taken and pointer derefs are distinct measures (a deref is
		// counted when a pointer is read, a jump when it is followed), but
		// both must be non-zero together on this workload.
		if (ev["jumpTaken"] == 0) != (res.Stats.PointerDerefs == 0) {
			t.Errorf("jumpTaken=%d derefs=%d", ev["jumpTaken"], res.Stats.PointerDerefs)
		}
	}
}

func TestTraceRendersJSONAndExplain(t *testing.T) {
	d, q, mv := traceFixture(t, SchemeLEp)
	rec := obs.NewRecorder()
	res, err := Evaluate(nil, d, q, mv, EngineViewJoin, &RunOptions{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if decoded["schema"] != obs.ReportSchema {
		t.Errorf("schema field = %v", decoded["schema"])
	}
	var txt bytes.Buffer
	if err := res.Trace.WriteExplain(&txt); err != nil {
		t.Fatal(err)
	}
	out := txt.String()
	for _, want := range []string{"query //a[//f]//b//e via VJ", "segment", "counters:", "node"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}
