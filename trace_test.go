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
	checkTraceCounters(t, res)
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

// checkTraceCounters holds a traced run's report to its Stats: the report
// carries no cost figure of its own, so every counter must be the run's,
// field by field.
func checkTraceCounters(t *testing.T, res *Result) {
	t.Helper()
	st := res.Stats
	want := obs.CountersReport{
		ElementsScanned: st.ElementsScanned,
		Comparisons:     st.Comparisons,
		PointerDerefs:   st.PointerDerefs,
		JumpsTaken:      st.JumpsTaken,
		JumpsRefused:    st.JumpsRefused,
		PagesRead:       st.PagesRead,
		PagesWritten:    st.PagesWritten,
		Matches:         int64(len(res.Matches)),
	}
	if res.Trace.Counters != want {
		t.Errorf("trace counters %+v, want the run's %+v", res.Trace.Counters, want)
	}
}

// TestEvaluateTraceAllEngines runs one interleaving path query through
// every engine on its scheme, traced and untraced: a Recorder must change
// neither the rows nor the deterministic Stats, and the report's counters
// must be the run's.
func TestEvaluateTraceAllEngines(t *testing.T) {
	d := GenerateXMark(0.02)
	q := MustParseQuery("//item//description//keyword")
	vs, err := ParseViews("//item//keyword; //description")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		eng    Engine
		scheme StorageScheme
	}{
		{EngineViewJoin, SchemeLEp},
		{EngineTwigStack, SchemeElement},
		{EnginePathStack, SchemeElement},
		{EngineInterJoin, SchemeTuple},
	} {
		t.Run(tc.eng.String()+"+"+tc.scheme.String(), func(t *testing.T) {
			mv, err := d.MaterializeViews(vs, tc.scheme)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := Evaluate(nil, d, q, mv, tc.eng, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Evaluate(nil, d, q, mv, tc.eng, &RunOptions{Tracer: obs.NewRecorder()})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Matches) == 0 || !reflect.DeepEqual(res.Matches, plain.Matches) {
				t.Errorf("traced rows (%d) differ from untraced (%d)", len(res.Matches), len(plain.Matches))
			}
			if !sameCounters(res.Stats, plain.Stats) {
				t.Errorf("traced stats %+v, untraced %+v", res.Stats, plain.Stats)
			}
			rep := res.Trace
			if rep == nil || rep.Plan == nil {
				t.Fatal("no trace")
			}
			if rep.Plan.Engine != tc.eng.String() || rep.Plan.Scheme != tc.scheme.String() {
				t.Errorf("plan is %s+%s", rep.Plan.Engine, rep.Plan.Scheme)
			}
			checkTraceCounters(t, res)
		})
	}
}

// TestEvaluateTracePathEngines traces PathStack on the element scheme and
// InterJoin on the tuple scheme over the sample document: each must return
// the direct evaluation's rows, name its engine and scheme in the plan, and
// report the run's counters.
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
		t.Fatalf("PathStack traced run wrong: %d matches, trace %v", len(res.Matches), res.Trace)
	}
	checkTraceCounters(t, res)

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
		t.Fatalf("InterJoin traced run wrong: %d matches", len(res.Matches))
	}
	if res.Trace.Plan.Scheme != "T" {
		t.Errorf("InterJoin plan scheme = %q, want T", res.Trace.Plan.Scheme)
	}
	checkTraceCounters(t, res)
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
			if !sameCounters(got.Stats, want.Stats) {
				t.Errorf("stats differ: %+v, want %+v", got.Stats, want.Stats)
			}
		})
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
	// refuse pointer jumps, and the trace must report the run's counts.
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
	res, err := Evaluate(nil, d, q, mv, EngineViewJoin, &RunOptions{Tracer: obs.NewRecorder()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.JumpsTaken+res.Stats.JumpsRefused == 0 {
		t.Errorf("no jump activity on LEp: %+v", res.Stats)
	}
	if c := res.Trace.Counters; c.JumpsTaken != res.Stats.JumpsTaken || c.JumpsRefused != res.Stats.JumpsRefused {
		t.Errorf("trace jumps %d/%d, run %d/%d", c.JumpsTaken, c.JumpsRefused, res.Stats.JumpsTaken, res.Stats.JumpsRefused)
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
	for _, want := range []string{"query //a[//f]//b//e via VJ", "segment", "counters:", "jumps="} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}
