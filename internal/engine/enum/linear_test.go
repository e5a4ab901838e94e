package enum

import (
	"testing"
	"time"

	"viewjoin/internal/counters"
	"viewjoin/internal/tpq"
	"viewjoin/internal/xmltree"
)

// linearShape builds a one-window document of size parameter n for a query
// whose enumeration must cost O(|F| + |out|).
type linearShape struct {
	name, query string
	build       func(b *xmltree.Builder, n int)
}

var linearShapes = []linearShape{
	{"flat ad path", "//site//item//name", func(b *xmltree.Builder, n int) {
		for i := 0; i < n; i++ {
			b.Element("item", func() { b.Leaf("name") })
		}
	}},
	{"twig, every other item fails an edge", "//site//item[//name]//text/keyword", func(b *xmltree.Builder, n int) {
		for i := 0; i < n; i++ {
			b.Element("item", func() {
				if i%2 == 0 {
					b.Leaf("name")
				}
				b.Element("text", func() { b.Leaf("keyword"); b.Element("bold", func() { b.Leaf("keyword") }) })
			})
		}
	}},
	// n nested items with n names under the innermost: every name meets a
	// stack n deep, and only its top can be the pc-parent. A merge that
	// looks further down the stack is quadratic here.
	{"deeply nested pc", "//site//item/name", func(b *xmltree.Builder, n int) {
		for i := 0; i < n; i++ {
			b.Begin("item")
		}
		for i := 0; i < n; i++ {
			b.Leaf("name")
		}
		for i := 0; i < n; i++ {
			b.End()
		}
	}},
	// The same chain under an ad-edge: every item has every name below it,
	// and the filter must reach all n items from one mark per name.
	{"deeply nested ad", "//site//item//name", func(b *xmltree.Builder, n int) {
		for i := 0; i < n; i++ {
			b.Begin("item")
		}
		for i := 0; i < 8; i++ {
			b.Leaf("name")
		}
		for i := 0; i < n; i++ {
			b.End()
		}
	}},
}

// enumerateOnce feeds the shape at size n through a collector and returns
// |F| + |out|, the Comparisons charged, and the fastest of nine runs of the
// filter over the still open window (warm scratch, no allocation: all that
// is timed is the merges).
func enumerateOnce(t *testing.T, s linearShape, n int) (units, comparisons int64, filter time.Duration) {
	t.Helper()
	b := xmltree.NewBuilder()
	b.Element("site", func() { s.build(b, n) })
	d := b.MustDocument()
	q := tpq.MustParse(s.query)
	var cnt counters.Counters
	c := newCollector(q, counters.NewIO(&cnt, 0), false)
	feed(d, q, c)
	c.normalize()
	for rep := 0; rep < 10; rep++ {
		begin := time.Now()
		c.filter()
		if took := time.Since(begin); rep == 1 || (rep > 1 && took < filter) {
			filter = took // rep 0 grows the scratch
		}
	}
	cnt.Comparisons = 0
	window := int64(c.entries)
	out := int64(len(c.Result()))
	return window + out, cnt.Comparisons, filter
}

// TestEnumerationIsLinear holds the stage to the paper's O(|F| + |out|):
// while a window doubles four times, the comparisons charged per unit of
// window plus output stay under a constant and do not grow.
//
// Comparisons only sees the work that is counted — one per parent
// candidate per edge in the filter, one per candidate the walk visits. The
// stack discipline of the merges is not counted, so the filter is also
// timed: sixteen times the window may take at most 64 times as long,
// halfway (in ratio) between the linear 16 and the quadratic 256 that
// scanning the stack per child costs on the nested shapes.
func TestEnumerationIsLinear(t *testing.T) {
	const base, doublings, perUnit = 1000, 4, 3.0
	for _, s := range linearShapes {
		var first float64
		var small, large time.Duration
		for k := 0; k <= doublings; k++ {
			n := base << k
			units, comparisons, filter := enumerateOnce(t, s, n)
			ratio := float64(comparisons) / float64(units)
			switch k {
			case 0:
				first, small = ratio, filter
			case doublings:
				large = filter
			}
			if ratio > perUnit || ratio > 1.25*first {
				t.Errorf("%s, n=%d: %d comparisons for |F|+|out| = %d (%.2f per unit, %.2f at n=%d)",
					s.name, n, comparisons, units, ratio, first, base)
			}
		}
		grew := float64(large) / float64(small)
		t.Logf("%s: %.2f comparisons per unit, filter x%.1f for x16 the window", s.name, first, grew)
		if grew > 64 {
			t.Errorf("%s: the filter took %v at n=%d and %v at n=%d (x%.0f for x16 the window)",
				s.name, small, base, large, base<<doublings, grew)
		}
	}
}
