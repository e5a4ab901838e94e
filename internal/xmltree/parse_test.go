package xmltree_test

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"viewjoin/internal/dataset/nasa"
	"viewjoin/internal/dataset/xmark"
	"viewjoin/internal/xmltree"
)

// generated returns the XMark and Nasa documents the benchmarks and the
// Write identity test use, as trees.
func generated(xmarkScale float64, nasaDatasets int) []struct {
	name string
	doc  *xmltree.Document
} {
	return []struct {
		name string
		doc  *xmltree.Document
	}{
		{"xmark", xmark.Generate(xmark.Config{Scale: xmarkScale, Seed: 1})},
		{"nasa", nasa.Generate(nasa.Config{Datasets: nasaDatasets, Seed: 1})},
	}
}

// TestWriteMatchesReference holds Write to the serializer it replaced, byte
// for byte, on generated documents and on a piece-table snapshot, and
// parses what it writes back to the same tree with both parsers.
func TestWriteMatchesReference(t *testing.T) {
	docs := generated(0.1, 400)
	frag, err := xmltree.ParseString("<x><y/><z><y/></z></x>")
	if err != nil {
		t.Fatal(err)
	}
	ap, err := docs[0].doc.Apply(xmltree.Update{Op: xmltree.OpAppendChild, Target: 1, Fragment: frag})
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, struct {
		name string
		doc  *xmltree.Document
	}{"xmark-updated", ap.New})
	for i, g := range docs {
		var got, want bytes.Buffer
		if err := xmltree.Write(&got, g.doc); err != nil {
			t.Fatal(err)
		}
		if err := xmltree.WriteReference(&want, g.doc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: Write differs from the reference (%d bytes, want %d)", g.name, got.Len(), want.Len())
		}
		if i == 2 {
			break // the snapshot numbers its merged types apart from a parse
		}
		for name, parse := range map[string]func(io.Reader) (*xmltree.Document, error){
			"Parse": xmltree.Parse, "reference": xmltree.ParseReference,
		} {
			d, err := parse(bytes.NewReader(got.Bytes()))
			if err != nil {
				t.Fatalf("%s: %s: %v", g.name, name, err)
			}
			if err := xmltree.SameTree(d, g.doc); err != nil {
				t.Fatalf("%s: %s: %v", g.name, name, err)
			}
		}
	}
}

// TestParseErrorsNameTheLine checks the error prefix and the line count,
// also when the lines before the error were read in earlier windows.
func TestParseErrorsNameTheLine(t *testing.T) {
	const in = "<a>\n  <b/>\n\n  <b></c>\n</a>\n"
	for _, r := range []io.Reader{strings.NewReader(in), iotest.OneByteReader(strings.NewReader(in))} {
		_, err := xmltree.Parse(r)
		if err == nil || !strings.HasPrefix(err.Error(), "xmltree: parse: line 4: ") {
			t.Errorf("Parse: %v, want an error on line 4", err)
		}
	}
	for _, in := range []string{"", "<a>", "<a>\xc3"} { // the last fails inside a UTF-8 sequence
		_, err := xmltree.Parse(io.MultiReader(strings.NewReader(in), iotest.ErrReader(io.ErrUnexpectedEOF)))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("Parse of a reader failing after %q: %v, want it to wrap the read error", in, err)
		}
	}
}

// TestParseStreams parses a stream of long tag names, every start tag's
// name split across a window refill, and requires it to allocate well
// under the stream's size: the input is never held whole, and a name that
// repeats is not copied again.
func TestParseStreams(t *testing.T) {
	const nameLen, count = 5000, 1000
	name := strings.Repeat("n", nameLen)
	unit := "<" + name + ">text</" + name + ">\n"
	parts := []io.Reader{strings.NewReader("<root>\n")}
	for range count {
		// Each Read returns one part, and the parts share unit's bytes.
		parts = append(parts, strings.NewReader(unit[:nameLen/2]), strings.NewReader(unit[nameLen/2:]))
	}
	parts = append(parts, strings.NewReader("</root>\n"))
	size := count * len(unit)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, err := xmltree.Parse(io.MultiReader(parts...))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumNodes() != count+1 || d.NumTypes() != 2 {
		t.Fatalf("%d nodes of %d types, want %d of 2", d.NumNodes(), d.NumTypes(), count+1)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= uint64(size)/4 {
		t.Fatalf("parsing a %d-byte stream allocated %d bytes, want under a quarter of it", size, alloc)
	}
}

// BenchmarkParse times Parse beside the encoding/xml parser it replaced on
// XMark 1 and Nasa 4000 text, in MB/s and allocations per parse.
func BenchmarkParse(b *testing.B) {
	for _, g := range generated(1, 4000) {
		var buf bytes.Buffer
		if err := xmltree.Write(&buf, g.doc); err != nil {
			b.Fatal(err)
		}
		text := buf.Bytes()
		for _, p := range []struct {
			name  string
			parse func(io.Reader) (*xmltree.Document, error)
		}{{"scanner", xmltree.Parse}, {"encoding-xml", xmltree.ParseReference}} {
			b.Run(g.name+"/"+p.name, func(b *testing.B) {
				b.SetBytes(int64(len(text)))
				b.ReportAllocs()
				for range b.N {
					if _, err := p.parse(bytes.NewReader(text)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkWrite times Write beside the fmt-based serializer it replaced.
func BenchmarkWrite(b *testing.B) {
	for _, g := range generated(1, 4000) {
		for _, w := range []struct {
			name  string
			write func(io.Writer, *xmltree.Document) error
		}{{"buffered", xmltree.Write}, {"fmt", xmltree.WriteReference}} {
			b.Run(g.name+"/"+w.name, func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					if err := w.write(io.Discard, g.doc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
