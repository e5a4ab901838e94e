package store

import (
	"testing"

	"viewjoin/internal/counters"
	"viewjoin/internal/tpq"
	"viewjoin/internal/views"
	"viewjoin/internal/xmltree"
)

func TestCursorPositionAndCopy(t *testing.T) {
	d, err := xmltree.ParseString(`<r><a><b/></a><a><b/><b/></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	m := views.MustMaterialize(d, tpq.MustParse("//a//b"))
	s := MustBuild(m, Linked, 64)

	var c counters.Counters
	io := counters.NewIO(&c, 0)
	cur := s.Lists[1].Open(io)
	cur.Next()
	pos := cur.Position()
	want := cur.Start()

	cl := *cur
	cl.Next()
	if cur.Start() != want {
		t.Errorf("advancing a copy advanced the original cursor")
	}
	probe := s.Lists[1].Open(io)
	probe.Seek(pos)
	if !probe.Valid() || probe.Start() != want {
		t.Errorf("Seek(Position()) did not return to the record")
	}
	// Seeking nil invalidates.
	probe.Seek(NilPointer)
	if probe.Valid() {
		t.Errorf("Seek(nil) must invalidate")
	}
}

func TestScopedAndPayload(t *testing.T) {
	d, err := xmltree.ParseString(`<r><a><b/></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	m := views.MustMaterialize(d, tpq.MustParse("//a//b"))
	s := MustBuild(m, Linked, 0)
	if s.Lists[0].Scoped() {
		t.Errorf("view root list must be unscoped")
	}
	if !s.Lists[1].Scoped() {
		t.Errorf("child list must be scoped")
	}
	if s.PayloadBytes() <= 0 || s.PayloadBytes() > s.SizeBytes() {
		t.Errorf("payload %d vs size %d", s.PayloadBytes(), s.SizeBytes())
	}
}
