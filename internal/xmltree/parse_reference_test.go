package xmltree

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// ParseReference is the parser Parse replaced: encoding/xml's Decoder in
// its default mode (Strict, no CharsetReader), element structure only. It
// is the oracle FuzzParseMatchesEncodingXML holds Parse to and the
// baseline BenchmarkParse times beside it.
func ParseReference(r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(r)
	b := NewBuilder()
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			b.Begin(t.Name.Local)
		case xml.EndElement:
			b.End()
		}
	}
	return b.Document()
}

// WriteReference is the serializer Write replaced, one fmt.Fprintf and
// strings.Repeat per tag; Write must match its output byte for byte.
func WriteReference(w io.Writer, d *Document) error {
	var err error
	printf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	var rec func(id NodeID, depth int)
	rec = func(id NodeID, depth int) {
		name := d.TypeName(d.Node(id).Type)
		indent := strings.Repeat("  ", depth)
		kids := d.Children(id)
		if len(kids) == 0 {
			printf("%s<%s/>\n", indent, name)
			return
		}
		printf("%s<%s>\n", indent, name)
		for _, c := range kids {
			rec(c, depth+1)
		}
		printf("%s</%s>\n", indent, name)
	}
	rec(d.Root(), 0)
	return err
}

// SameTree reports how got differs from want: type names in order of first
// use, then every node's type name, labels and parent.
func SameTree(got, want *Document) error {
	if got.NumNodes() != want.NumNodes() || got.NumTypes() != want.NumTypes() {
		return fmt.Errorf("%d nodes of %d types, want %d of %d",
			got.NumNodes(), got.NumTypes(), want.NumNodes(), want.NumTypes())
	}
	for t := range TypeID(want.NumTypes()) {
		if got.TypeName(t) != want.TypeName(t) {
			return fmt.Errorf("type %d is %q, want %q", t, got.TypeName(t), want.TypeName(t))
		}
	}
	for id := range NodeID(want.NumNodes()) {
		if g, w := got.Node(id), want.Node(id); g != w {
			return fmt.Errorf("node %d is %+v, want %+v", id, g, w)
		}
	}
	return nil
}

// tooLongToWrite reports whether Write would spend more than 4 MB on
// d's indentation alone, which grows with the square of a chain's depth:
// at most two tags per node, two spaces per level.
func tooLongToWrite(d *Document) bool {
	indent := 0
	for id := range NodeID(d.NumNodes()) {
		indent += 4 * int(d.Node(id).Level)
	}
	return indent > 4<<20
}

// nested is a chain of depth elements, deep enough past 64 levels that
// Write pads with more than one slice of its shared indent.
func nested(depth int) string {
	return strings.Repeat("<a>", depth-1) + "<a/>" + strings.Repeat("</a>", depth-1)
}

// parityCases are the behaviours of the encoding/xml parser that Parse
// must keep: what it accepts, with the types it gives, and what it
// rejects.
var parityCases = []struct {
	in    string
	types []string // in document order; nil: rejected
}{
	{"<a/>junk", []string{"a"}},
	{`<a x="1" x="2"/>`, []string{"a"}},
	{"<a></a >", []string{"a"}},
	{"\uFEFF<a/>", []string{"a"}},
	{"<a><![CDATA[<b/>]]]]></a>", []string{"a"}},
	{`<?xml version="1.0" encoding="utf-8"?><!--c--><a><?p d?><!-- - --></a><?q?>`, []string{"a"}},
	{"<:a/>", []string{":a"}},
	{"<a:/>", []string{"a:"}},
	{"<é/>", []string{"é"}},
	{"<x:a></x:a>", []string{"a"}},
	{`<x:a xmlns:x="u"><y:a/></x:a>`, []string{"a", "a"}},
	{`<!DOCTYPE a [<!ENTITY e "<b/>"> <!-- > -->]><a/>`, []string{"a"}},
	{`<a b='&lt;&#60;&#x3c;"'>&amp;&#xD800;]]</a>`, []string{"a"}},
	{"<a\r\n\tb\t=\r\n'1'c='2'/>", []string{"a"}},

	{"<a:b:c/>", nil},
	{"<x:a></y:a>", nil},
	{"<a>&foo;</a>", nil},
	{`<!DOCTYPE a [<!ENTITY foo "bar">]><a>&foo;</a>`, nil},
	{"<a b=1/>", nil},
	{"<a>\x01</a>", nil},
	{"<a>\xff</a>", nil},
	{`<?xml version="1.0" encoding="ISO-8859-1"?><a/>`, nil},
	{`<?xml version="1.1"?><a/>`, nil},
	{"<a>]]></a>", nil},
	{"<a>&#0;</a>", nil},
	{"<a>&#x110000;</a>", nil},
	{"<a>&lt</a>", nil},
	{"<!-- -- --><a/>", nil},
	{"<a></a><b/>", nil},
	{"<a b='<'/>", nil},
	{"<a><![CDATA[x</a>", nil},
	{"<a/><!DOCTYPE", nil},
	{"", nil},
}

// TestParseParityCases pins the cases on both parsers: the reference has
// the behaviour, and Parse keeps it.
func TestParseParityCases(t *testing.T) {
	for _, c := range parityCases {
		for name, parse := range map[string]func(io.Reader) (*Document, error){
			"reference": ParseReference, "Parse": Parse,
		} {
			d, err := parse(strings.NewReader(c.in))
			if c.types == nil {
				if err == nil {
					t.Errorf("%s(%q) accepted, want an error", name, c.in)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s(%q): %v", name, c.in, err)
				continue
			}
			var got []string
			for id := range NodeID(d.NumNodes()) {
				got = append(got, d.TypeName(d.Node(id).Type))
			}
			if fmt.Sprint(got) != fmt.Sprint(c.types) {
				t.Errorf("%s(%q) types %q, want %q", name, c.in, got, c.types)
			}
		}
	}
}

// FuzzParseMatchesEncodingXML holds Parse to encoding/xml: where the
// reference accepts an input Parse builds the same tree, where it rejects
// one Parse fails too. Each input is also parsed one byte per Read, so
// every token crosses a window refill somewhere.
func FuzzParseMatchesEncodingXML(f *testing.F) {
	for _, c := range parityCases {
		f.Add(c.in)
	}
	f.Add(nested(300))
	f.Fuzz(func(t *testing.T, s string) {
		want, werr := ParseReference(strings.NewReader(s))
		for _, r := range []io.Reader{strings.NewReader(s), iotest.OneByteReader(strings.NewReader(s))} {
			got, err := Parse(r)
			switch {
			case werr != nil && err == nil:
				t.Fatalf("Parse(%q) accepted; the reference: %v", s, werr)
			case werr == nil && err != nil:
				t.Fatalf("Parse(%q): %v; the reference accepts it", s, err)
			case werr == nil:
				if err := SameTree(got, want); err != nil {
					t.Fatalf("Parse(%q): %v", s, err)
				}
				if tooLongToWrite(got) {
					continue
				}
				var w, ref bytes.Buffer
				if err := Write(&w, got); err != nil {
					t.Fatal(err)
				}
				if err := WriteReference(&ref, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(w.Bytes(), ref.Bytes()) {
					t.Fatalf("Write(%q):\n%s\nthe reference:\n%s", s, w.Bytes(), ref.Bytes())
				}
			}
		}
	})
}
