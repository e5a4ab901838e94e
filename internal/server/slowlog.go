package server

import (
	"sort"
	"sync"
)

// SlowlogSchema identifies the GET /debug/slowlog response body.
const SlowlogSchema = "viewjoin/slowlog/v4"

// slowlogSize is how many entries each of the recorder's two lists keeps.
const slowlogSize = 8

// slowlog is the flight recorder, on in every server: a fixed-size ring of
// the most recent requests plus the top-N slowest by wall time. Its
// entries are copies of the requests' access lines: their stage clocks say
// where a slow request's wall time went, and re-posting its body to
// /debug/trace takes its trace on demand. Every observed request enters
// the recent ring and competes for the slow set; a reader after only the
// requests over some bar filters on duration_us. Entries are immutable
// once observed, so serving a snapshot is a shallow copy under the lock.
type slowlog struct {
	mu   sync.Mutex
	size int

	recent   []accessLine // ring buffer, next points at the oldest slot
	next     int
	observed int64

	slowest []accessLine // sorted by DurationUS descending, len <= size
}

func newSlowlog(size int) *slowlog { return &slowlog{size: size} }

// observe records one finished request. The wall time ranks the slow set:
// it is what the client experienced, so queueing and gating delays count,
// not just engine time.
func (l *slowlog) observe(e accessLine) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.observed++

	if len(l.recent) < l.size {
		l.recent = append(l.recent, e)
	} else {
		l.recent[l.next] = e
		l.next = (l.next + 1) % l.size
	}

	if len(l.slowest) == l.size && e.DurationUS <= l.slowest[len(l.slowest)-1].DurationUS {
		return
	}
	// Insert in descending DurationUS order; the slice is tiny
	// (slowlogSize), so a binary search plus copy beats maintaining a heap.
	i := sort.Search(len(l.slowest), func(i int) bool { return l.slowest[i].DurationUS < e.DurationUS })
	l.slowest = append(l.slowest, accessLine{})
	copy(l.slowest[i+1:], l.slowest[i:])
	l.slowest[i] = e
	if len(l.slowest) > l.size {
		l.slowest = l.slowest[:l.size]
	}
}

// slowlogSnapshot is the GET /debug/slowlog response body.
type slowlogSnapshot struct {
	Schema   string       `json:"schema"`
	Size     int          `json:"size"`
	Observed int64        `json:"observed"`
	Slowest  []accessLine `json:"slowest"` // wall time descending
	Recent   []accessLine `json:"recent"`  // newest first
}

// snapshot copies the recorder state: slowest by wall time descending,
// recent newest-first. Both lists encode as [] when empty, never null.
func (l *slowlog) snapshot() slowlogSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := slowlogSnapshot{
		Schema:   SlowlogSchema,
		Size:     l.size,
		Observed: l.observed,
		Slowest:  append(make([]accessLine, 0, len(l.slowest)), l.slowest...),
		Recent:   make([]accessLine, 0, len(l.recent)),
	}
	// The ring's newest entry sits just before next; walk backwards.
	for i := 0; i < len(l.recent); i++ {
		idx := (l.next - 1 - i + len(l.recent)) % len(l.recent)
		s.Recent = append(s.Recent, l.recent[idx])
	}
	return s
}
