package xmltree

import (
	"strings"
	"testing"
)

// FuzzParse checks that the XML element parser never panics and that every
// accepted document satisfies the region-label invariants and round-trips
// through Write, type names included, writing what the reference
// serializer writes. Only a document whose indentation alone would pass
// 4 MB stops after the invariants.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"<a/>", "<a><b/></a>", "<a><b>hi<c/></b>t</a>",
		`<a x="1"><!--c--><b/></a>`, "<a><a><a/></a></a>",
		"<a><b></a></b>", "<a>", "", "a<b/>", "<a/><b/>", nested(300),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseString(s)
		if err != nil {
			return
		}
		if verr := d.Validate(); verr != nil {
			t.Fatalf("ParseString(%q) accepted invalid tree: %v", s, verr)
		}
		if tooLongToWrite(d) {
			return
		}
		var sb, ref strings.Builder
		if err := Write(&sb, d); err != nil {
			t.Fatalf("Write failed on accepted document: %v", err)
		}
		if err := WriteReference(&ref, d); err != nil || ref.String() != sb.String() {
			t.Fatalf("Write differs from the reference serializer (%v):\n%s\nwant:\n%s", err, sb.String(), ref.String())
		}
		d2, err := ParseString(sb.String())
		if err != nil {
			t.Fatalf("round trip does not re-parse: %v", err)
		}
		if d2.NumNodes() != d.NumNodes() {
			t.Fatalf("round trip changed node count: %d vs %d", d2.NumNodes(), d.NumNodes())
		}
		for i := 0; i < d.NumNodes(); i++ {
			a, b := d.Node(NodeID(i)), d2.Node(NodeID(i))
			if a.Start != b.Start || a.End != b.End || a.Level != b.Level {
				t.Fatalf("round trip changed labels of node %d", i)
			}
			if d.TypeName(a.Type) != d2.TypeName(b.Type) {
				t.Fatalf("round trip changed the type of node %d: %q, was %q", i, d2.TypeName(b.Type), d.TypeName(a.Type))
			}
		}
	})
}
