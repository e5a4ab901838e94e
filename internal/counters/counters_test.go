package counters

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestAdd(t *testing.T) {
	a := Counters{ElementsScanned: 1, Comparisons: 2, PointerDerefs: 3, PagesRead: 4, PagesWritten: 5, Matches: 6}
	b := Counters{ElementsScanned: 10, Comparisons: 20, PointerDerefs: 30, PagesRead: 40, PagesWritten: 50, Matches: 60}
	a.Add(b)
	if a.ElementsScanned != 11 || a.Comparisons != 22 || a.PointerDerefs != 33 ||
		a.PagesRead != 44 || a.PagesWritten != 55 || a.Matches != 66 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestString(t *testing.T) {
	c := Counters{ElementsScanned: 7}
	if !strings.Contains(c.String(), "scanned=7") {
		t.Fatalf("String = %q", c.String())
	}
}

func TestIOPoolHitsAndMisses(t *testing.T) {
	var c Counters
	io := NewIO(&c, 2)
	if !io.Touch(1, 0) {
		t.Errorf("first touch must miss")
	}
	if io.Touch(1, 0) {
		t.Errorf("second touch of same page must hit")
	}
	io.Touch(1, 1) // miss; pool now {0,1}
	if c.PagesRead != 2 {
		t.Fatalf("PagesRead = %d, want 2", c.PagesRead)
	}
	// Third distinct page evicts the LRU (page 0: page 1 is more recent...
	// page 0 was touched twice, then page 1; page 0 is older).
	io.Touch(1, 2)
	if c.PagesRead != 3 {
		t.Fatalf("PagesRead = %d, want 3", c.PagesRead)
	}
	if io.Touch(1, 0) != true {
		t.Errorf("page 0 should have been evicted (LRU)")
	}
	if io.Touch(1, 2) {
		t.Errorf("page 2 should still be resident")
	}
}

func TestIODistinctFiles(t *testing.T) {
	var c Counters
	io := NewIO(&c, 8)
	io.Touch(1, 0)
	if !io.Touch(2, 0) {
		t.Errorf("page 0 of a different file must be a distinct pool entry")
	}
	if c.PagesRead != 2 {
		t.Fatalf("PagesRead = %d, want 2", c.PagesRead)
	}
}

func TestIODefaultAndUncached(t *testing.T) {
	var c Counters
	io := NewIO(&c, 0)
	if io.cap != DefaultPoolPages {
		t.Fatalf("default pool = %d, want %d", io.cap, DefaultPoolPages)
	}
	var c2 Counters
	raw := NewIO(&c2, -1)
	raw.Touch(1, 0)
	raw.Touch(1, 0)
	if c2.PagesRead != 2 {
		t.Fatalf("uncached IO must count every touch: %d", c2.PagesRead)
	}
}

func TestIOWrite(t *testing.T) {
	var c Counters
	io := NewIO(&c, 0)
	io.Write(5)
	io.Write(3)
	if c.PagesWritten != 8 {
		t.Fatalf("PagesWritten = %d, want 8", c.PagesWritten)
	}
}

// TestIOEvictsLeastRecentlyUsedNotInserted pins the replacement policy to
// LRU rather than FIFO: after refreshing the two oldest-inserted pages, the
// newest-inserted page is the eviction victim.
func TestIOEvictsLeastRecentlyUsedNotInserted(t *testing.T) {
	var c Counters
	io := NewIO(&c, 3)
	io.Touch(1, 0) // insertion order: 0, 1, 2
	io.Touch(1, 1)
	io.Touch(1, 2)
	io.Touch(1, 0) // use order now: 2, 1, 0 — FIFO's victim (0) is the MRU
	io.Touch(1, 1)
	io.Touch(1, 3) // full: must evict page 2, the least recently used
	if io.Touch(1, 0) {
		t.Errorf("page 0 evicted: policy is FIFO, want LRU")
	}
	if io.Touch(1, 1) {
		t.Errorf("page 1 evicted: policy is FIFO, want LRU")
	}
	if !io.Touch(1, 2) {
		t.Errorf("page 2 still resident, want it evicted as least recently used")
	}
}

// TestIONegativePoolEveryTouchMisses checks that poolPages < 0 disables
// caching: repeated touches of one page all read, and the Page hook sees
// only misses.
func TestIONegativePoolEveryTouchMisses(t *testing.T) {
	var c Counters
	io := NewIO(&c, -1)
	misses := 0
	io.Page = func(_ uintptr, _ int32, miss bool) {
		if !miss {
			t.Errorf("uncached IO reported a pool hit")
		}
		misses++
	}
	for i := 0; i < 5; i++ {
		if !io.Touch(7, 0) {
			t.Fatalf("touch %d: uncached IO must miss", i)
		}
	}
	if c.PagesRead != 5 || misses != 5 {
		t.Fatalf("PagesRead = %d, hook misses = %d, want 5 and 5", c.PagesRead, misses)
	}
}

// TestIOPageHookSequence checks the hook observes every lookup with the
// right hit/miss flag, including the miss that evicts.
func TestIOPageHookSequence(t *testing.T) {
	var c Counters
	io := NewIO(&c, 1)
	var got []bool
	io.Page = func(_ uintptr, _ int32, miss bool) { got = append(got, miss) }
	io.Touch(1, 0) // miss
	io.Touch(1, 0) // hit
	io.Touch(1, 1) // miss, evicts page 0
	io.Touch(1, 0) // miss again
	want := []bool{true, false, true, true}
	if len(got) != len(want) {
		t.Fatalf("hook saw %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: miss = %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
	if c.PagesRead != 3 {
		t.Fatalf("PagesRead = %d, want 3", c.PagesRead)
	}
}

func TestIOLRUOrder(t *testing.T) {
	var c Counters
	io := NewIO(&c, 3)
	io.Touch(1, 0)
	io.Touch(1, 1)
	io.Touch(1, 2)
	io.Touch(1, 0) // refresh page 0: page 1 becomes LRU
	io.Touch(1, 3) // evicts page 1
	if io.Touch(1, 0) {
		t.Errorf("page 0 must still be resident after refresh")
	}
	if !io.Touch(1, 1) {
		t.Errorf("page 1 must have been evicted")
	}
}

// scanPool is the pool IO had before its recency list: a map from page to
// last-use sequence number, and a scan of the whole map for the smallest
// one on every eviction. It is the reference IO's pool must match touch
// for touch.
type scanPool struct {
	cap  int
	seq  int64
	last map[[2]uint64]int64
}

func (p *scanPool) touch(file uintptr, page int32) (miss bool) {
	p.seq++
	if p.cap < 0 {
		return true
	}
	k := [2]uint64{uint64(file), uint64(uint32(page))}
	if _, ok := p.last[k]; ok {
		p.last[k] = p.seq
		return false
	}
	if len(p.last) >= p.cap {
		var victim [2]uint64
		best := int64(math.MaxInt64)
		for k, s := range p.last {
			if s < best {
				best, victim = s, k
			}
		}
		delete(p.last, victim)
	}
	p.last[k] = p.seq
	return true
}

// TestLRUMatchesReferenceScan drives IO and the reference pool with the
// same random touch sequences — pool sizes from none to a thousand pages,
// one to five files, page ranges around the pool size so that hits,
// misses and evictions all occur — and compares every touch's outcome, the
// Page hook's view of it and the counters, step by step. A second pass
// over each IO after Reset checks that a reused pool starts empty.
func TestLRUMatchesReferenceScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, poolPages := range []int{-1, 1, 2, 64, 1000} {
		for files := 1; files <= 5; files++ {
			var c Counters
			io := NewIO(&c, poolPages)
			for pass := 0; pass < 2; pass++ {
				ref := &scanPool{cap: poolPages, last: map[[2]uint64]int64{}}
				var want Counters
				var hooked []bool
				io.Page = func(_ uintptr, _ int32, miss bool) { hooked = append(hooked, miss) }
				pages := max(2, poolPages) * (1 + rng.Intn(3)) / files
				for step := 0; step < 6000; step++ {
					file, page := uintptr(1+rng.Intn(files)), int32(rng.Intn(pages+1))
					if rng.Intn(4) == 0 {
						page = int32(rng.Intn(4)) // a hot set
					}
					miss := ref.touch(file, page)
					if miss {
						want.PagesRead++
					} else {
						want.PageHits++
					}
					if got := io.Touch(file, page); got != miss || len(hooked) != step+1 || hooked[step] != miss || c != want {
						t.Fatalf("pool %d, %d files, pass %d, step %d: touch (%d,%d) miss=%v hook=%v counters %+v, reference miss=%v counters %+v",
							poolPages, files, pass, step, file, page, got, hooked[len(hooked)-1:], c, miss, want)
					}
				}
				c = Counters{}
				io.Reset(&c, poolPages)
			}
		}
	}
}
