package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// opRec is one completed operation as its client saw it.
type opRec struct {
	class int // index into the instance's classes; -1 for an /update
	lat   time.Duration
}

// clientRec collects one client's operations for one round. The counters
// below the span fields are facts read off server responses; the query
// ones cost a field scan per response, so only traced rounds fill them.
type clientRec struct {
	ops    []opRec
	failed int

	tr        *spanRecorder // nil when tracing is off
	roundSpan int

	rows, bodyBytes int64
	firstMatchUS    []float64
	missLat         []time.Duration // reads the plan cache missed (re-prepare after an update)

	maintains, fastPaths, compactions int
	sharedPages, totalPages           int64
}

func (c *clientRec) observe(class int, lat time.Duration, ok bool) {
	c.ops = append(c.ops, opRec{class, lat})
	if !ok {
		c.failed++
	}
}

// roundResult is one round: every client's records plus the process-wide
// deltas taken around it.
type roundResult struct {
	recs   []*clientRec
	wall   time.Duration
	cpu    time.Duration
	mem0   runtime.MemStats
	mem1   runtime.MemStats
	ops    int
	failed int
}

// cpuTime is the process's user+system CPU time so far. It includes the
// garbage collector's workers, so work hidden behind a second core still
// counts.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runRound runs one closed-loop round: each client performs its fixed
// operation list, sending the next operation when the previous completes.
// The heap is collected first so a round does not pay for its
// predecessor's garbage.
func runRound(inst *instance, tr *spanRecorder) *roundResult {
	r := &roundResult{recs: make([]*clientRec, inst.clients)}
	roundSpan := -1
	runtime.GC()
	runtime.ReadMemStats(&r.mem0)
	if tr != nil {
		roundSpan = tr.begin("round", -1, 0)
	}
	cpu0, t0 := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for c := range r.recs {
		r.recs[c] = &clientRec{tr: tr, roundSpan: roundSpan}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			inst.round(c, r.recs[c])
		}(c)
	}
	wg.Wait()
	r.wall, r.cpu = time.Since(t0), cpuTime()-cpu0
	if tr != nil {
		tr.end(roundSpan)
	}
	runtime.ReadMemStats(&r.mem1)
	for _, rec := range r.recs {
		r.ops += len(rec.ops)
		r.failed += rec.failed
	}
	return r
}

// latencies returns the round's sorted latencies of the operations keep
// selects.
func (r *roundResult) latencies(keep func(class int) bool) []time.Duration {
	var out []time.Duration
	for _, rec := range r.recs {
		for _, op := range rec.ops {
			if keep(op.class) {
				out = append(out, op.lat)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func isQuery(class int) bool  { return class >= 0 }
func isUpdate(class int) bool { return class < 0 }

// percentile is the p-th percentile of a sorted sample, the value with a
// share p of the sample below it; 0 for an empty sample. A round runs every
// query class equally often, so p*n can fall exactly between two classes
// (the median of 14 classes does): the rank rounds up, to the fastest
// operation of the slower class, which repeats far better than the slowest
// operation of the faster one.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(int(p*float64(len(sorted))), len(sorted)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// iqr is the distance between the first and third quartile (the exclusive
// method, as Python's statistics.quantiles(v, n=4)); 0 below two samples.
func iqr(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return q(3) - q(1)
}

// metric is one reported number. A round-level metric also carries, for
// the printed table, the median and spread over rounds and their number.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	median float64
	iqr    float64
	n      int
}

// overRounds reports pick of a value measured once per round.
func overRounds(unit string, per []float64, pick func([]float64) float64) metric {
	return metric{Value: pick(per), Unit: unit, median: median(per), iqr: iqr(per), n: len(per)}
}

const mib = 1 << 20
