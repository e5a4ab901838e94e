package store

import (
	"bytes"
	"math"
	"testing"

	"viewjoin/internal/counters"
	"viewjoin/internal/dataset/xmark"
	"viewjoin/internal/tpq"
	"viewjoin/internal/views"
)

func benchView(b *testing.B, kind Kind) *ViewStore {
	b.Helper()
	d := xmark.Scale(0.1)
	m := views.MustMaterialize(d, tpq.MustParse("//item//text//keyword"))
	return MustBuild(m, kind, 0)
}

// BenchmarkCursorScan measures sequential record decoding per scheme — the
// per-element cost every engine pays — as a Next loop and, in the run arm,
// as run reads (AppendBefore) into a 1 024-label buffer, which is how the
// collector takes a removed node's in-window records. Both report
// ns/record over the view's entries.
func BenchmarkCursorScan(b *testing.B) {
	for _, kind := range []Kind{Element, Linked, LinkedPartial} {
		s := benchView(b, kind)
		entries := float64(s.TotalEntries())
		perRecord := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/entries, "ns/record")
			b.ReportMetric(entries, "entries")
		}
		b.Run(kind.String(), func(b *testing.B) {
			var c counters.Counters
			io := counters.NewIO(&c, 0)
			n := 0
			for i := 0; i < b.N; i++ {
				for _, l := range s.Lists {
					for cur := l.Open(io); cur.Valid(); cur.Next() {
						n += int(cur.Start() & 1)
					}
				}
			}
			_ = n
			perRecord(b)
		})
		b.Run(kind.String()+"/run", func(b *testing.B) {
			var c counters.Counters
			io := counters.NewIO(&c, 0)
			buf := make([]Label, 0, 1024)
			n := 0
			for i := 0; i < b.N; i++ {
				for _, l := range s.Lists {
					for cur := l.Open(io); cur.Valid(); {
						buf = cur.AppendBefore(buf[:0], math.MaxInt32)
						n += int(buf[len(buf)-1].Start & 1)
					}
				}
			}
			_ = n
			perRecord(b)
		})
	}
}

// BenchmarkCursorSeek measures pointer dereferencing: following every
// materialized child pointer of the LE view.
func BenchmarkCursorSeek(b *testing.B) {
	s := benchView(b, Linked)
	var c counters.Counters
	io := counters.NewIO(&c, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe := s.Lists[1].Open(io)
		for cur := s.Lists[0].Open(io); cur.Valid(); cur.Next() {
			if p := cur.Child(0); !p.IsNil() {
				probe.Seek(p)
			}
		}
	}
}

// BenchmarkTupleScan measures the tuple scheme's wide-record decoding.
func BenchmarkTupleScan(b *testing.B) {
	s := benchView(b, Tuple)
	var c counters.Counters
	io := counters.NewIO(&c, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for cur := s.Tuples.Open(io); cur.Valid(); cur.Next() {
		}
	}
	b.ReportMetric(float64(s.Tuples.Entries()), "tuples")
}

// BenchmarkLoadViewStore measures view cold-start — deserializing a saved
// store — per scheme. The zero-copy loader slices segments out of the
// input buffer, so time is dominated by pointer validation and
// allocs/op stays O(lists) regardless of record count (ReportAllocs makes
// the zero-copy property visible in the benchmark output).
func BenchmarkLoadViewStore(b *testing.B) {
	for _, kind := range []Kind{Tuple, Element, Linked, LinkedPartial} {
		s := benchView(b, kind)
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := ReadViewStoreBytes(data); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.NumPages()), "pages")
		})
	}
}

// BenchmarkBuild measures store construction (serialization) per scheme.
func BenchmarkBuild(b *testing.B) {
	d := xmark.Scale(0.1)
	m := views.MustMaterialize(d, tpq.MustParse("//item//text//keyword"))
	for _, kind := range []Kind{Tuple, Element, Linked, LinkedPartial} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Build(m, kind, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
