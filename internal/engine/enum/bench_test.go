package enum

import (
	"strings"
	"testing"

	"viewjoin/internal/counters"
	"viewjoin/internal/tpq"
)

// BenchmarkEnumerate measures the output stage alone — Add, window
// management, filter, walk, row copies — on the two shapes that pull its
// design in opposite directions: one document-spanning window whose cost is
// all per-candidate and per-row work, and thousands of tiny windows whose
// cost is all per-window overhead. Candidates come from the naive generator
// (every node with a query node's tag), replayed from memory. Beside
// ns/match, the small-windows shape reports ns/window: that overhead as one
// number.
func BenchmarkEnumerate(b *testing.B) {
	var spanning, windows strings.Builder
	spanning.WriteString("<site>") // 5 000 items x 4 keywords = 20 000 rows
	for i := 0; i < 5000; i++ {
		spanning.WriteString("<item><name/><text><keyword/><keyword/></text><text><keyword/><keyword/></text></item>")
	}
	spanning.WriteString("</site>")
	windows.WriteString("<r>") // 2 000 windows of 3 rows
	for i := 0; i < 2000; i++ {
		windows.WriteString("<item><name/><keyword/><keyword/><keyword/></item>")
	}
	windows.WriteString("</r>")

	for _, shape := range []struct {
		name, src, query string
		windows          int // reported per window when more than one
	}{
		{"spanning-window", spanning.String(), "//site//item[//name]//text//keyword", 1},
		{"small-windows", windows.String(), "//item[//name]//keyword", 2000},
	} {
		b.Run(shape.name, func(b *testing.B) {
			q := tpq.MustParse(shape.query)
			qis, labels := candidates(doc(b, shape.src), q)
			var cnt counters.Counters
			io := counters.NewIO(&cnt, 0)
			c := newCollector(q, io, false)
			feedAll := func() int {
				c.Reset(q, io, nil, false)
				for i, qi := range qis {
					c.Add(qi, labels[i])
				}
				return len(c.Result())
			}
			matches := feedAll() // also warms the collector's scratch
			if matches < 6000 {
				b.Fatalf("shape produced %d matches", matches)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := feedAll(); got != matches {
					b.Fatalf("run %d produced %d matches, want %d", i, got, matches)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*matches), "ns/match")
			if shape.windows > 1 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shape.windows), "ns/window")
			}
		})
	}
}
