package main

import (
	"reflect"
	"testing"
)

// TestSelfTimes pins self time = duration minus the part of the interval
// that child spans cover, on synthetic spans.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "round", Start: 0, End: 100, Parent: -1},
		// Two clients' operations overlap on [30,40): the round's covered
		// time is the union [10,60), not the sum of the two durations.
		{Name: "op", Start: 10, End: 40, Parent: 0, Op: 1},
		{Name: "op", Start: 30, End: 60, Parent: 0, Op: 2},
		// Sequential children inside op 1, with a gap.
		{Name: "handler", Start: 12, End: 38, Parent: 1, Op: 1},
		{Name: "engine", Start: 12, End: 20, Parent: 3, Op: 1},
		// A child reported as a duration may overrun its parent; it is
		// clipped to the parent's interval.
		{Name: "engine", Start: 50, End: 70, Parent: 2, Op: 2},
		// A child nested inside an already covered stretch adds nothing.
		{Name: "op", Start: 32, End: 38, Parent: 0, Op: 3},
	}
	got := selfTimes(spans)
	want := []int64{
		100 - 50, // round: [10,60) covered
		30 - 26,  // op 1: handler covers [12,38)
		30 - 10,  // op 2: engine clipped to [50,60)
		26 - 8,   // handler: engine covers [12,20)
		8,
		20,
		6,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}

	total, count := selfByName(spans)
	if total["op"] != 4+20+6 || count["op"] != 3 || total["engine"] != 28 {
		t.Fatalf("selfByName: total %v count %v", total, count)
	}
}

// TestSpanRecorder checks parent links and op ids of recorded spans.
func TestSpanRecorder(t *testing.T) {
	r := newSpanRecorder()
	round := r.begin("round", -1, 0)
	op := r.newOp()
	a := r.begin("op", round, op)
	b := r.add("engine", a, op, r.start(a), r.start(a)+5)
	r.end(a)
	r.end(round)
	if r.spans[a].Parent != round || r.spans[b].Parent != a || r.spans[b].Op != op || r.newOp() == op {
		t.Fatalf("spans %+v", r.spans)
	}
	for _, s := range r.spans {
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
}
