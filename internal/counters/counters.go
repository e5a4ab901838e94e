// Package counters provides the deterministic cost accounting shared by
// all storage schemes and evaluation engines: elements scanned, structural
// comparisons, pointer dereferences, and simulated page I/O (one read per
// page touched; as in the paper's cost model there is no cache).
//
// The paper reports wall-clock time on a specific 2010 testbed; this
// reproduction additionally reports these machine-independent counters so
// that the relative results (who wins, by what factor) are stable across
// hardware.
package counters

import "time"

// Counters accumulates the cost measures of one query evaluation. Its JSON
// form is the counter record of vjserve's /debug/plans.
type Counters struct {
	// ElementsScanned counts entries decoded from materialized lists or
	// tuple files.
	ElementsScanned int64 `json:"elements_scanned"`
	// Comparisons counts structural comparisons between region labels.
	Comparisons int64 `json:"comparisons"`
	// PointerDerefs counts materialized pointers followed (LE/LEp only).
	PointerDerefs int64 `json:"pointer_derefs"`
	// PagesRead counts simulated page reads, one per page touch.
	PagesRead int64 `json:"pages_read"`
	// PagesWritten counts pages written (disk-based output approach).
	PagesWritten int64 `json:"pages_written"`
	// JumpsTaken / JumpsRefused count materialized pointer jumps followed
	// and refused (safe-jump probe, open-region cover, stale pointers).
	// Like every counter here they are recorded on every run, so
	// serving-side aggregation sees them without tracing overhead.
	JumpsTaken   int64 `json:"jumps_taken"`
	JumpsRefused int64 `json:"jumps_refused"`
	// Matches counts output tree pattern instances.
	Matches int64 `json:"matches"`
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.ElementsScanned += o.ElementsScanned
	c.Comparisons += o.Comparisons
	c.PointerDerefs += o.PointerDerefs
	c.PagesRead += o.PagesRead
	c.PagesWritten += o.PagesWritten
	c.JumpsTaken += o.JumpsTaken
	c.JumpsRefused += o.JumpsRefused
	c.Matches += o.Matches
}

// IO charges a run's page I/O to its counters. Every page touch is a read:
// the paper's cost model (§III-B) has no cache, and a forward cursor
// touches a page once, when its window slides onto it.
type IO struct {
	C *Counters
	// Page, when non-nil, observes every page touch in order: the store's
	// reference tests compare a cursor's touches through it, and the root
	// package's tests check that no run touches a page twice.
	Page func(file uintptr, page int32)
	// firstMatch is the wall time of the run's first delivered match
	// (zero until MarkFirstMatch).
	firstMatch time.Time
}

// NewIO returns an IO accounting into c.
//
// Pinned: the signature, with its ignored second argument, is part of what
// benchmark/ calls and must not change outside a [benchmark] PR.
func NewIO(c *Counters, _ int) *IO { return &IO{C: c} }

// Reset rebinds the IO to account into c, as NewIO would: a plan that runs
// many times resets one IO per run instead of allocating one.
func (io *IO) Reset(c *Counters) { *io = IO{C: c} }

// Touch charges a read of the given page of the given file (identified by
// any stable pointer-sized token).
func (io *IO) Touch(file uintptr, page int32) {
	io.C.PagesRead++
	if io.Page != nil {
		io.Page(file, page)
	}
}

// Write records n pages written (disk-based output approach).
func (io *IO) Write(n int64) { io.C.PagesWritten += n }

// MarkFirstMatch stamps the wall time of the run's first delivered match;
// calls after the first are no-ops (one IsZero test), so engines may call
// it per match. Time-to-first-match is the streaming stage's headline
// metric: it stays flat as total match counts grow.
func (io *IO) MarkFirstMatch() {
	if io.firstMatch.IsZero() {
		io.firstMatch = time.Now()
	}
}

// FirstMatchTime returns the time stamped by MarkFirstMatch; zero when the
// run delivered no match.
func (io *IO) FirstMatchTime() time.Time { return io.firstMatch }
