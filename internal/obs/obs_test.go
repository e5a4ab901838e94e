package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"viewjoin/internal/counters"
)

func TestPhaseNesting(t *testing.T) {
	r := NewRecorder()
	r.BeginPhase(PhaseEvaluate)
	time.Sleep(2 * time.Millisecond)
	r.BeginPhase(PhaseEnumerate) // pauses evaluate
	time.Sleep(2 * time.Millisecond)
	r.EndPhase(PhaseEnumerate)
	time.Sleep(time.Millisecond)
	r.EndPhase(PhaseEvaluate)

	rep := r.Report(counters.Counters{}, 0)
	ev, en := time.Duration(rep.Phases[PhaseEvaluate].Nanos), time.Duration(rep.Phases[PhaseEnumerate].Nanos)
	if ev <= 0 || en <= 0 {
		t.Fatalf("phase durations not recorded: evaluate=%v enumerate=%v", ev, en)
	}
	// Exclusive accounting: evaluate must not include the enumerate span.
	if en < 2*time.Millisecond {
		t.Errorf("enumerate = %v, want >= 2ms", en)
	}
	if total := ev + en; total < 5*time.Millisecond {
		t.Errorf("total = %v, want >= 5ms", total)
	}
}

func TestEndPhaseUnderflow(t *testing.T) {
	r := NewRecorder()
	r.EndPhase(PhaseParse) // must not panic
	r.BeginPhase(PhaseParse)
	r.EndPhase(PhaseParse)
	r.EndPhase(PhaseParse)
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Add(0)
	h.Add(1)
	h.Add(2)
	h.Add(3)
	h.Add(4)
	h.Add(1 << 40)       // clamps to the last bucket
	h.Add(-5)            // negative clamps to 0
	if h.Count[0] != 2 { // 0 and -5
		t.Errorf("bucket 0 = %d, want 2", h.Count[0])
	}
	if h.Count[1] != 1 { // 1
		t.Errorf("bucket 1 = %d, want 1", h.Count[1])
	}
	if h.Count[2] != 2 { // 2, 3
		t.Errorf("bucket 2 = %d, want 2", h.Count[2])
	}
	if h.Count[3] != 1 { // 4
		t.Errorf("bucket 3 = %d, want 1", h.Count[3])
	}
	if h.Count[HistogramBuckets-1] != 1 {
		t.Errorf("last bucket = %d, want 1", h.Count[HistogramBuckets-1])
	}
	if BucketUpper(0) != 0 || BucketUpper(1) != 1 || BucketUpper(3) != 7 {
		t.Errorf("BucketUpper wrong: %d %d %d", BucketUpper(0), BucketUpper(1), BucketUpper(3))
	}
}

func TestReportJSONStable(t *testing.T) {
	r := NewRecorder()
	r.Plan(&Plan{
		Query: "//a//b", Engine: "VJ", Scheme: "LEp",
		Views:       []string{"//a", "//b"},
		NumSegments: 2,
		Nodes: []PlanNode{
			{Index: 0, Label: "a", Parent: -1, View: 0, ViewNode: 0, Segment: 0, SegmentRoot: true, ListEntries: 10},
			{Index: 1, Label: "b", Axis: "//", Parent: 0, View: 1, ViewNode: 0, Segment: 1, SegmentRoot: true, InterView: true, ListEntries: 20},
		},
	})
	c := counters.Counters{ElementsScanned: 10, Matches: 5, PagesRead: 2, JumpsTaken: 3, JumpsRefused: 1}
	rep := r.Report(c, 123*time.Microsecond)

	var buf1, buf2 bytes.Buffer
	if err := rep.WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf1.String() != buf2.String() {
		t.Fatal("JSON encoding not deterministic")
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf1.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded["schema"] != ReportSchema {
		t.Errorf("schema = %v", decoded["schema"])
	}
	for _, key := range []string{"plan", "phases", "counters", "durationNanos"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("missing key %q in report JSON", key)
		}
	}
	for _, key := range []string{"events", "nodes", "jumpSkipPages"} {
		if _, ok := decoded[key]; ok {
			t.Errorf("report JSON carries removed key %q", key)
		}
	}
	if rep.Counters.PagesRead != 2 {
		t.Errorf("counters.pagesRead = %d, want 2", rep.Counters.PagesRead)
	}
	if rep.Counters.Matches != 5 {
		t.Errorf("counters.matches = %d, want 5", rep.Counters.Matches)
	}
	if rep.Counters.JumpsTaken != 3 || rep.Counters.JumpsRefused != 1 {
		t.Errorf("counters jumps = %d/%d, want 3/1", rep.Counters.JumpsTaken, rep.Counters.JumpsRefused)
	}
}

func TestReportExplain(t *testing.T) {
	r := NewRecorder()
	r.Plan(&Plan{
		Query: "//a//b", Engine: "VJ", Scheme: "LE",
		Views:       []string{"//a//b"},
		NumSegments: 1,
		Nodes: []PlanNode{
			{Index: 0, Label: "a", Parent: -1, View: 0, ViewNode: 0, Segment: 0, SegmentRoot: true, ListEntries: 4},
			{Index: 1, Label: "b", Axis: "//", Parent: 0, View: 0, ViewNode: 1, Segment: 0, ListEntries: 9},
		},
	})
	r.BeginPhase(PhaseEvaluate)
	r.EndPhase(PhaseEvaluate)
	rep := r.Report(counters.Counters{ElementsScanned: 4, JumpsTaken: 2}, time.Millisecond)

	var buf bytes.Buffer
	if err := rep.WriteExplain(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"//a//b", "segment", "evaluate", "scanned=4", "jumps=2 refused=0", "pagesR=0", "q0", "q1"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

func TestPhaseNames(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Phases() {
		name := p.String()
		if name == "unknown" || seen[name] {
			t.Errorf("bad phase name %q", name)
		}
		seen[name] = true
	}
}
