package obs

import (
	"sync"
	"testing"
	"time"

	"viewjoin/internal/counters"
)

func TestHistogramMerge(t *testing.T) {
	var a, b, want Histogram
	for _, v := range []int64{0, 1, 5, 9, 300} {
		a.Add(v)
		want.Add(v)
	}
	for _, v := range []int64{2, 7, 1 << 20} {
		b.Add(v)
		want.Add(v)
	}
	a.Merge(&b)
	if a != want {
		t.Fatalf("merged histogram differs from direct accumulation:\n got %+v\nwant %+v", a, want)
	}
	// Merging an empty histogram is a no-op.
	var empty Histogram
	before := a
	a.Merge(&empty)
	if a != before {
		t.Fatal("merging an empty histogram changed the receiver")
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	var h Histogram
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty histogram Quantile(%v) = %d, want 0", q, got)
		}
	}
	if h.Mean() != 0 {
		t.Errorf("empty histogram Mean = %v, want 0", h.Mean())
	}
}

func TestHistogramQuantileSingleBucket(t *testing.T) {
	// All observations share one bucket: the estimate must stay inside the
	// bucket's range and never exceed the observed maximum.
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Add(5) // bucket [4, 7]
	}
	for _, q := range []float64{0.01, 0.5, 0.95, 0.999} {
		got := h.Quantile(q)
		if got < 4 || got > 5 {
			t.Errorf("Quantile(%v) = %d, want within [4, 5] (bucket lower..Max)", q, got)
		}
	}
	if got := h.Quantile(1); got != 5 {
		t.Errorf("Quantile(1) = %d, want Max=5", got)
	}

	// Degenerate single-bucket case: every value is zero.
	var z Histogram
	z.Add(0)
	z.Add(0)
	if got := z.Quantile(0.5); got != 0 {
		t.Errorf("all-zero Quantile(0.5) = %d, want 0", got)
	}
}

func TestHistogramQuantileSaturated(t *testing.T) {
	// Values beyond the last bucket's range clamp into it; the quantile
	// must clamp to the observed Max, not the bucket's astronomic upper.
	var h Histogram
	huge := int64(1) << 40
	for i := 0; i < 10; i++ {
		h.Add(huge)
	}
	if h.Count[HistogramBuckets-1] != 10 {
		t.Fatalf("saturated bucket count = %d, want 10", h.Count[HistogramBuckets-1])
	}
	lo := BucketUpper(HistogramBuckets-2) + 1
	for _, q := range []float64{0.5, 0.99} {
		got := h.Quantile(q)
		if got < lo || got > huge {
			t.Errorf("saturated Quantile(%v) = %d, want within [%d, %d] (bucket floor..Max)", q, got, lo, huge)
		}
	}
	if got := h.Quantile(1); got != huge {
		t.Errorf("saturated Quantile(1) = %d, want Max=%d", got, huge)
	}
}

func TestHistogramQuantileOrdering(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Add(v)
	}
	p50, p95, p99, p999 := h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Quantile(0.999)
	if !(p50 <= p95 && p95 <= p99 && p99 <= p999 && p999 <= h.Max) {
		t.Fatalf("quantiles not monotone: p50=%d p95=%d p99=%d p999=%d max=%d", p50, p95, p99, p999, h.Max)
	}
	// Log buckets bound the error to one power of two.
	if p50 < 250 || p50 > 1000 {
		t.Errorf("p50 = %d, want within a bucket of 500", p50)
	}
	if p99 < 500 || p99 > 1000 {
		t.Errorf("p99 = %d, want within a bucket of 990", p99)
	}
	if got := h.Mean(); got != 500.5 {
		t.Errorf("Mean = %v, want 500.5", got)
	}
}

func TestAggregateFold(t *testing.T) {
	var a Aggregate
	a.AddRun(counters.Counters{PagesRead: 2, JumpsTaken: 3, JumpsRefused: 1, Matches: 10}, 100*time.Microsecond)
	a.AddRun(counters.Counters{PagesRead: 2, JumpsTaken: 1, JumpsRefused: 3, Matches: 10}, 300*time.Microsecond)
	a.AddError()

	s := a.Snapshot()
	if s.Runs != 2 || s.Errors != 1 {
		t.Fatalf("runs=%d errors=%d, want 2/1", s.Runs, s.Errors)
	}
	if s.Counters.Matches != 20 || s.Counters.PagesRead != 4 {
		t.Errorf("counters not summed: %+v", s.Counters)
	}
	if got := s.JumpRefusedRate(); got != 4.0/8.0 {
		t.Errorf("jump refused rate = %v, want 1/2", got)
	}
	if s.LatencyUS.N != 2 || s.LatencyUS.Max != 300 {
		t.Errorf("latency histogram: %+v", s.LatencyUS)
	}

	// The ratio of an empty aggregate is defined (0), not NaN.
	var empty AggregateSnapshot
	if empty.JumpRefusedRate() != 0 {
		t.Error("empty snapshot ratio must be 0")
	}
}

// TestAggregateConcurrent exercises the mutex under -race: many goroutines
// folding runs and reading snapshots of one shared Aggregate.
func TestAggregateConcurrent(t *testing.T) {
	var a Aggregate
	const workers, runs = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				a.AddRun(counters.Counters{Matches: 1, PagesRead: 1}, time.Duration(i)*time.Microsecond)
				if i%50 == 0 {
					_ = a.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	s := a.Snapshot()
	if s.Runs != workers*runs || s.Counters.Matches != workers*runs {
		t.Fatalf("lost updates: %+v", s)
	}
	if s.LatencyUS.N != workers*runs {
		t.Fatalf("latency histogram N = %d, want %d", s.LatencyUS.N, workers*runs)
	}
}
