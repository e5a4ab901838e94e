package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share an op id; Parent is the index of the span that caused this one
// (-1 for a root). Times are nanoseconds since the recorder was created.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op_id"`
}

// spanRecorder keeps the traced pass's spans in memory; dump writes them
// out when the benchmark ends. It is the benchmark's own recorder: spans
// are opened in this package around each call into a layer, nothing is
// added inside the program.
type spanRecorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ops   int
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

func (r *spanRecorder) now() int64 { return int64(time.Since(r.epoch)) }

// newOp returns a fresh operation id.
func (r *spanRecorder) newOp() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// begin opens a span now and returns its index.
func (r *spanRecorder) begin(name string, parent, op int) int {
	return r.add(name, parent, op, r.now(), 0)
}

// start returns when span id began.
func (r *spanRecorder) start(id int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id].Start
}

// end closes the span opened by begin.
func (r *spanRecorder) end(id int) {
	t := r.now()
	r.mu.Lock()
	r.spans[id].End = t
	r.mu.Unlock()
}

// add records a span whose interval is already known: the program reports
// some layers as durations (obs phase times, the server's duration_us),
// which the caller lays out inside their parent.
func (r *spanRecorder) add(name string, parent, op int, start, end int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op})
	return len(r.spans) - 1
}

func (r *spanRecorder) dump(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return json.NewEncoder(w).Encode(r.spans)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children that overlap one
// another (two clients under one round) are counted once, and a child is
// clipped to its parent's interval.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self time per span name, with the number of spans.
func selfByName(spans []span) (total map[string]int64, count map[string]int) {
	total, count = make(map[string]int64), make(map[string]int)
	for i, t := range selfTimes(spans) {
		total[spans[i].Name] += t
		count[spans[i].Name]++
	}
	return total, count
}
