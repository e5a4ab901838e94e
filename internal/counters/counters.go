// Package counters provides the deterministic cost accounting shared by
// all storage schemes and evaluation engines: elements scanned, structural
// comparisons, pointer dereferences, and simulated page I/O.
//
// The paper reports wall-clock time on a specific 2010 testbed; this
// reproduction additionally reports these machine-independent counters so
// that the relative results (who wins, by what factor) are stable across
// hardware.
package counters

import (
	"fmt"
	"time"
)

// Counters accumulates the cost measures of one query evaluation.
type Counters struct {
	// ElementsScanned counts entries decoded from materialized lists or
	// tuple files.
	ElementsScanned int64
	// Comparisons counts structural comparisons between region labels.
	Comparisons int64
	// PointerDerefs counts materialized pointers followed (LE/LEp only).
	PointerDerefs int64
	// PagesRead counts simulated page fetches that missed the buffer pool.
	PagesRead int64
	// PagesWritten counts pages written (disk-based output approach).
	PagesWritten int64
	// PageHits counts page touches served from the buffer pool without a
	// read; PagesRead + PageHits is the total touch count, so the hit
	// ratio of a run is PageHits / (PageHits + PagesRead).
	PageHits int64
	// JumpsTaken / JumpsRefused count materialized pointer jumps followed
	// and refused (safe-jump probe, open-region cover, stale pointers).
	// Unlike the tracer's per-node events these are recorded on every run,
	// so serving-side aggregation sees them without tracing overhead.
	JumpsTaken   int64
	JumpsRefused int64
	// Matches counts output tree pattern instances.
	Matches int64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.ElementsScanned += o.ElementsScanned
	c.Comparisons += o.Comparisons
	c.PointerDerefs += o.PointerDerefs
	c.PagesRead += o.PagesRead
	c.PagesWritten += o.PagesWritten
	c.PageHits += o.PageHits
	c.JumpsTaken += o.JumpsTaken
	c.JumpsRefused += o.JumpsRefused
	c.Matches += o.Matches
}

// String renders the counters compactly.
func (c *Counters) String() string {
	return fmt.Sprintf("scanned=%d cmp=%d deref=%d pagesR=%d pagesW=%d pageHits=%d jumps=%d/%d matches=%d",
		c.ElementsScanned, c.Comparisons, c.PointerDerefs, c.PagesRead, c.PagesWritten,
		c.PageHits, c.JumpsTaken, c.JumpsRefused, c.Matches)
}

// IO simulates a buffer pool in front of the paged store: page touches that
// hit the pool are free, misses count as PagesRead. Replacement is exact
// LRU over (file, page) keys at a constant cost per touch: resident pages
// sit in slots threaded by a recency list and are found through a map.
type IO struct {
	C *Counters
	// Page, when non-nil, observes every pool lookup: the page touched and
	// whether the touch was charged as a read. The observability layer uses
	// it to stream page hit/miss events without this package depending on
	// it.
	Page func(file uintptr, page int32, miss bool)
	cap  int
	// slots[0] is the recency list's sentinel (next: most recently used,
	// prev: least); resident pages occupy slots[1:], and index maps a page
	// to its slot. Both grow with the pages actually resident, not with
	// cap, and keep their storage across Reset.
	slots []slot
	index map[pageKey]int32
	// firstMatch is the wall time of the run's first delivered match
	// (zero until MarkFirstMatch).
	firstMatch time.Time
}

type pageKey struct {
	file uintptr
	page int32
}

type slot struct {
	key        pageKey
	prev, next int32
}

// DefaultPoolPages is the buffer pool capacity every evaluation runs with,
// a constant of the cost model: 64 pages (256 KiB at the default 4 KiB page
// size), small enough that scans of large views actually incur misses.
const DefaultPoolPages = 64

// NewIO returns an IO accounting into c with a pool of poolPages pages
// (DefaultPoolPages if poolPages is 0). Evaluation always passes 0; other
// capacities are for measuring: small ones exercise replacement in tests,
// and a negative one disables caching entirely — every touch is a miss,
// which is how a scan's raw touch count is read.
func NewIO(c *Counters, poolPages int) *IO {
	io := &IO{}
	io.Reset(c, poolPages)
	return io
}

// Reset empties the pool and rebinds the IO to account into c with a pool
// of poolPages pages, as NewIO would, keeping the pool's storage: a plan
// that runs many times resets one IO per run instead of allocating one.
func (io *IO) Reset(c *Counters, poolPages int) {
	if poolPages == 0 {
		poolPages = DefaultPoolPages
	}
	clear(io.index)
	*io = IO{C: c, cap: poolPages, slots: io.slots[:0], index: io.index}
}

// Touch records an access to the given page of the given file (identified
// by any stable pointer-sized token). It returns true when the access was a
// pool miss.
func (io *IO) Touch(file uintptr, page int32) bool {
	miss := io.cap < 0 || io.lookup(pageKey{file, page})
	if miss {
		io.C.PagesRead++
	} else {
		io.C.PageHits++
	}
	if io.Page != nil {
		io.Page(file, page, miss)
	}
	return miss
}

// lookup makes the page the most recently used one and reports whether it
// had to be brought in, in place of the least recently used page when the
// pool is full.
func (io *IO) lookup(k pageKey) (miss bool) {
	if len(io.slots) == 0 {
		if io.index == nil {
			n := min(io.cap, DefaultPoolPages)
			io.slots, io.index = make([]slot, 0, 1+n), make(map[pageKey]int32, n)
		}
		io.slots = append(io.slots, slot{})
	}
	i, hit := io.index[k]
	switch {
	case hit:
		s := &io.slots[i]
		io.slots[s.prev].next, io.slots[s.next].prev = s.next, s.prev
	case len(io.slots) > io.cap:
		// Recycle the least recently used slot.
		i = io.slots[0].prev
		s := &io.slots[i]
		io.slots[s.prev].next, io.slots[0].prev = 0, s.prev
		delete(io.index, s.key)
	default:
		i = int32(len(io.slots))
		io.slots = append(io.slots, slot{})
	}
	if !hit {
		io.index[k] = i
	}
	head, s := &io.slots[0], &io.slots[i]
	*s = slot{key: k, prev: 0, next: head.next}
	io.slots[head.next].prev = i
	head.next = i
	return !hit
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
