package viewjoin

import (
	"testing"
)

// TestMaterializeResultRoundTrip: evaluate a query, capture its result as
// a view, and use that view to answer a larger query that contains it.
func TestMaterializeResultRoundTrip(t *testing.T) {
	d := GenerateNasa(150)
	sub := MustParseQuery("//field//definition//para")
	direct := EvaluateDirect(d, sub)
	if len(direct.Matches) == 0 {
		t.Fatal("fixture has no matches")
	}

	// Capture the result as an LE view without re-materializing.
	resultView, err := d.MaterializeResult(sub, direct, SchemeLE, nil)
	if err != nil {
		t.Fatal(err)
	}
	// It must be identical to materializing the pattern directly.
	fresh, err := d.MaterializeView(sub, SchemeLE, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resultView.NumEntries() != fresh.NumEntries() || resultView.NumPointers() != fresh.NumPointers() {
		t.Fatalf("result view (%d entries, %d ptrs) != fresh view (%d entries, %d ptrs)",
			resultView.NumEntries(), resultView.NumPointers(), fresh.NumEntries(), fresh.NumPointers())
	}

	// Use it (plus one more view) to answer a containing query.
	bigger := MustParseQuery("//dataset//field//definition//para")
	dsView, err := d.MaterializeView(MustParseQuery("//dataset"), SchemeLE, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(nil, d, bigger, []*MaterializedView{resultView, dsView}, EngineViewJoin, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := EvaluateDirect(d, bigger)
	if !sameMatches(res, want) {
		t.Fatalf("bigger query via result view: %d matches, want %d", len(res.Matches), len(want.Matches))
	}
}

func TestMaterializeResultErrors(t *testing.T) {
	d := sampleDoc(t)
	q := MustParseQuery("//a//b")
	res := EvaluateDirect(d, q)

	// Row arity mismatch.
	bad := &Result{Matches: [][]Node{{{Start: 1}}}}
	if _, err := d.MaterializeResult(q, bad, SchemeLE, nil); err == nil {
		t.Errorf("arity mismatch: expected error")
	}
	// Foreign start label.
	bad2 := &Result{Matches: [][]Node{{{Start: 99999}, {Start: 99998}}}}
	if _, err := d.MaterializeResult(q, bad2, SchemeLE, nil); err == nil {
		t.Errorf("foreign node: expected error")
	}
	// Valid call with options.
	if _, err := d.MaterializeResult(q, res, SchemeTuple, &MaterializeOptions{PageSize: 256}); err != nil {
		t.Errorf("valid call failed: %v", err)
	}
}

// TestMaterializeResultOfASubset pins what a partial result materializes.
// Over <r><a><b/><a><b/></a></a></r>, //a//b has three rows; a view made
// of the two rows (outer a, first b) and (inner a, second b) answers those
// two rows under the tuple scheme, which keeps rows, but all three under
// LE, which keeps only the solution nodes (both a's and both b's), and the
// join recombines them into the missing (outer a, second b).
func TestMaterializeResultOfASubset(t *testing.T) {
	d, err := ParseDocumentString(`<r><a><b/><a><b/></a></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery("//a//b")
	full := EvaluateDirect(d, q)
	if len(full.Matches) != 3 {
		t.Fatalf("//a//b: %d rows, want 3", len(full.Matches))
	}
	subset := &Result{Matches: [][]Node{full.Matches[0], full.Matches[2]}}
	if subset.Matches[0][0] == subset.Matches[1][0] || subset.Matches[0][1] == subset.Matches[1][1] {
		t.Fatalf("subset %v does not bind both a's and both b's", subset.Matches)
	}
	for _, c := range []struct {
		scheme StorageScheme
		engine Engine
		want   *Result
	}{
		{SchemeTuple, EngineInterJoin, subset},
		{SchemeLE, EngineViewJoin, full},
	} {
		v, err := d.MaterializeResult(q, subset, c.scheme, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Evaluate(nil, d, q, []*MaterializedView{v}, c.engine, nil)
		if err != nil {
			t.Fatalf("%v: %v", c.scheme, err)
		}
		if !sameMatches(res, c.want) {
			t.Errorf("%v view of a 2-row subset answers %d rows %v, want %d", c.scheme, len(res.Matches), res.Matches, len(c.want.Matches))
		}
	}
}
