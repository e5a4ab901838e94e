package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"viewjoin/internal/counters"
)

// ReportSchema versions the JSON encoding of Report. Consumers should
// reject documents whose schema they do not understand; additive changes
// keep the suffix, breaking changes bump it.
const ReportSchema = "viewjoin/trace/v2"

// Report is the machine-readable rendering of one traced evaluation: the
// plan, per-phase durations and the run's counters. Field order (and thus JSON key order) is stable by
// construction.
type Report struct {
	Schema string `json:"schema"`
	Plan   *Plan  `json:"plan,omitempty"`

	// DurationNanos is the total evaluation wall time.
	DurationNanos int64 `json:"durationNanos"`
	// FirstMatchNanos is the wall time from the start of the run to the
	// first match produced (time-to-first-match); 0 when the run produced
	// no match or the caller did not record it. Stamped by the public API
	// after the report is built.
	FirstMatchNanos int64 `json:"firstMatchNanos,omitempty"`
	// Phases lists exclusive per-phase durations in execution order;
	// phases that never ran are included with zero duration.
	Phases []PhaseReport `json:"phases"`

	// Counters mirrors the run's deterministic counters.
	Counters CountersReport `json:"counters"`
}

// PhaseReport is one phase's measured self time.
type PhaseReport struct {
	Phase string `json:"phase"`
	Nanos int64  `json:"nanos"`
}

// CountersReport is the stable JSON encoding of counters.Counters.
type CountersReport struct {
	ElementsScanned int64 `json:"elementsScanned"`
	Comparisons     int64 `json:"comparisons"`
	PointerDerefs   int64 `json:"pointerDerefs"`
	JumpsTaken      int64 `json:"jumpsTaken"`
	JumpsRefused    int64 `json:"jumpsRefused"`
	PagesRead       int64 `json:"pagesRead"`
	PagesWritten    int64 `json:"pagesWritten"`
	Matches         int64 `json:"matches"`
}

// Report builds the renderable snapshot, stamping in the run's counters
// and total duration (which the Recorder does not observe itself).
func (r *Recorder) Report(c counters.Counters, total time.Duration) *Report {
	rep := &Report{
		Schema:        ReportSchema,
		Plan:          r.plan,
		DurationNanos: int64(total),
		Counters: CountersReport{
			ElementsScanned: c.ElementsScanned,
			Comparisons:     c.Comparisons,
			PointerDerefs:   c.PointerDerefs,
			JumpsTaken:      c.JumpsTaken,
			JumpsRefused:    c.JumpsRefused,
			PagesRead:       c.PagesRead,
			PagesWritten:    c.PagesWritten,
			Matches:         c.Matches,
		},
	}
	for _, p := range Phases() {
		rep.Phases = append(rep.Phases, PhaseReport{Phase: p.String(), Nanos: int64(r.phases[p])})
	}
	return rep
}

// WriteJSON writes the report as one indented JSON document.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteExplain renders the report as a human EXPLAIN-style text: the
// view-segmented query with list bindings, then per-phase self times, the
// run's counters.
func (rep *Report) WriteExplain(w io.Writer) error {
	var b strings.Builder
	if p := rep.Plan; p != nil {
		fmt.Fprintf(&b, "query %s via %s over %d %s view(s)\n", p.Query, p.Engine, len(p.Views), p.Scheme)
		for i, v := range p.Views {
			fmt.Fprintf(&b, "  view %d: %s\n", i, v)
		}
		if p.NumSegments > 0 {
			fmt.Fprintf(&b, "view-segmented query: %d segment(s)\n", p.NumSegments)
		}
		for _, n := range p.Nodes {
			axis := n.Axis
			if axis == "" {
				axis = "//"
			}
			loc := "removed from Q' (window extension via pointers)"
			if n.Segment >= 0 {
				role := "member"
				if n.SegmentRoot {
					role = "root"
				}
				loc = fmt.Sprintf("segment %d %s", n.Segment, role)
				if n.InterView {
					loc += ", inter-view edge"
				}
			}
			binding := ""
			if n.View >= 0 {
				binding = fmt.Sprintf(" <- view %d node %d", n.View, n.ViewNode)
				if n.ListEntries >= 0 {
					binding += fmt.Sprintf(" (%d entries)", n.ListEntries)
				}
			}
			fmt.Fprintf(&b, "  q%-3d %s%-14s %s%s\n", n.Index, axis, n.Label, loc, binding)
		}
	}
	fmt.Fprintf(&b, "total %v\n", time.Duration(rep.DurationNanos))
	fmt.Fprintf(&b, "%-10s %12s\n", "phase", "self time")
	for _, p := range rep.Phases {
		if p.Nanos == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-10s %12v\n", p.Phase, time.Duration(p.Nanos))
	}
	c := rep.Counters
	fmt.Fprintf(&b, "counters: scanned=%d cmp=%d deref=%d jumps=%d refused=%d pagesR=%d pagesW=%d matches=%d\n",
		c.ElementsScanned, c.Comparisons, c.PointerDerefs, c.JumpsTaken, c.JumpsRefused, c.PagesRead, c.PagesWritten, c.Matches)
	_, err := io.WriteString(w, b.String())
	return err
}
