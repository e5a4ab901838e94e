// Package engine holds the pieces shared by the TPQ evaluation engines:
// binding query nodes to the on-disk lists of the covering views, and the
// common evaluation options.
package engine

import (
	"errors"
	"fmt"

	"viewjoin/internal/obs"
	"viewjoin/internal/store"
	"viewjoin/internal/vsq"
)

// ErrStop is the graceful early-termination signal: when an output quota is
// met (first-k, LIMIT) the enumeration stage records it on the run's
// Interrupter, unwinding the engine loops exactly like a cancellation —
// except the engines treat it as success with the output produced so far
// rather than as a failed run. Only the collector's quota raises it: an
// interrupt hook's error, ErrStop included, fails the run.
var ErrStop = errors.New("engine: stopped at output quota")

// Options controls an evaluation run.
type Options struct {
	// Tracer receives the enumeration stage's phase span (the collector's
	// PhaseEnumerate); the engines emit nothing else into it, since a run's
	// costs are its counters. nil disables tracing at zero hot-path cost.
	Tracer *obs.Recorder
	// DiskBased selects the disk-based output approach (§IV "Variations")
	// as a cost-model setting: every window flush is charged the scratch
	// pages spooling its entries would write and read back, while the
	// window stays in memory (see enum.Collector).
	DiskBased bool
	// Interrupt, when non-nil, is polled cooperatively from the engine main
	// loops and the window enumeration stage; a non-nil return aborts the
	// run with that error. The public API binds it to a context's deadline
	// or cancellation. nil keeps the historical uninterruptible behaviour
	// at zero hot-path cost.
	Interrupt func() error
	// Restrict, when non-nil, narrows the run to the part of the document
	// after a cursor: every list cursor is bound to the records whose start
	// labels fall in the restriction's span for its query node (SpanFor).
	// nil keeps the whole document.
	Restrict *Restriction
	// First, when > 0, bounds the number of matches produced (the limit,
	// counted after the After filter): once reached, the enumeration stage
	// stops the run via ErrStop and the engine returns the bounded output
	// as a successful result.
	First int
	// After, when non-nil, restricts output to matches strictly greater
	// than this start-label tuple (one start per query node, compared
	// lexicographically — i.e. document order). It is a row filter, applied
	// by every engine where it emits; the seek that makes a follow-up page
	// cost what it returns is the Restrict the executor pairs it with,
	// whose body starts at the cursor.
	After []int32
}

// interruptStride is how many Interrupter.Check calls elapse between real
// polls of the underlying hook. 256 keeps the per-iteration cost to a
// counter increment and a mask while bounding cancellation latency to a few
// hundred cursor steps.
const interruptStride = 256

// Interrupter performs strided cooperative cancellation checks for the
// engine hot loops. The zero value (nil hook) never interrupts and costs
// two predictable branches per Check. The first Check always polls, so an
// already-expired deadline aborts before any work; the error is sticky.
type Interrupter struct {
	f   func() error
	n   uint32
	err error
}

// NewInterrupter returns an Interrupter polling f (nil disables).
func NewInterrupter(f func() error) Interrupter { return Interrupter{f: f} }

// Check polls the hook every interruptStride-th call (and on the first)
// and returns the sticky error. The sticky error is tested before the hook
// so a Stop works without any hook installed; the no-hook, no-stop fast
// path stays two nil tests so the compiler inlines it into the engine hot
// loops.
func (ic *Interrupter) Check() error {
	if ic.err != nil {
		return ic.err
	}
	if ic.f == nil {
		return nil
	}
	return ic.check()
}

func (ic *Interrupter) check() error {
	if ic.err != nil {
		return ic.err
	}
	if ic.n%interruptStride == 0 {
		ic.err = ic.f()
	}
	ic.n++
	return ic.err
}

// Err returns the sticky error recorded by a previous Check, without
// polling.
func (ic *Interrupter) Err() error { return ic.err }

// Stop records ErrStop as the sticky error, making every subsequent Check
// and Err report it: the engine loops unwind as for a cancellation, then
// treat the run as successfully terminated at its output quota. A real
// error already recorded wins — a stop never masks a failure.
func (ic *Interrupter) Stop() {
	if ic.err == nil {
		ic.err = ErrStop
	}
}

// Fit returns s resized in place to n elements: a pooled evaluator
// re-bound to another plan keeps every element's capacity, including the
// ones a smaller plan leaves beyond its length, and grows only past cap.
func Fit[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// BindLists maps each query node to the list file that holds its
// candidates: the list of its covering view's node, found through the
// view-segmented query's ownership maps. The stores must be the element-
// family stores of v.Views, in the same order.
func BindLists(v *vsq.VSQ, stores []*store.ViewStore) ([]*store.ListFile, error) {
	if len(stores) != len(v.Views) {
		return nil, fmt.Errorf("engine: %d stores for %d views", len(stores), len(v.Views))
	}
	files := make([]*store.ListFile, v.Query.Size())
	for qi := range files {
		vi, ni := v.Owner[qi], v.ViewNode[qi]
		if vi < 0 || ni < 0 {
			return nil, fmt.Errorf("engine: query node %d not covered by any view", qi)
		}
		s := stores[vi]
		if s.Kind == store.Tuple || len(s.Lists) != v.Views[vi].Size() {
			return nil, fmt.Errorf("engine: store %d (%v) is not an element-family store of view %s",
				vi, s.Kind, v.Views[vi])
		}
		files[qi] = s.Lists[ni]
	}
	return files, nil
}
