package viewjoin

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEvaluateWithoutViewsBasic(t *testing.T) {
	d := sampleDoc(t)
	for _, qs := range []string{"//a//b//c", "//a[//f]//b//e", "//r//a//e"} {
		q := MustParseQuery(qs)
		want := EvaluateDirect(d, q)
		res, err := EvaluateWithoutViews(nil, d, q, EngineTwigStack, nil)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		if !sameMatches(res, want) {
			t.Errorf("%s: got %d matches, want %d", qs, len(res.Matches), len(want.Matches))
		}
		// The no-view run is an executor run like any other: full Stats,
		// and the page options honoured.
		if st := res.Stats; st.Partitions != 1 || st.PagesRead == 0 {
			t.Errorf("%s: Stats %+v, want Partitions 1 and some page traffic", qs, st)
		}
		page, err := EvaluateWithoutViews(nil, d, q, EngineTwigStack, &RunOptions{Limit: 3})
		if err != nil {
			t.Fatalf("%s limit 3: %v", qs, err)
		}
		if first := want.Matches[:min(3, len(want.Matches))]; !samePage(page.Matches, first) {
			t.Errorf("%s limit 3: got %d rows, want the first %d of EvaluateDirect", qs, len(page.Matches), len(first))
		}
		if q.IsPath() {
			res, err = EvaluateWithoutViews(nil, d, q, EnginePathStack, nil)
			if err != nil {
				t.Fatalf("%s PS: %v", qs, err)
			}
			if !sameMatches(res, want) {
				t.Errorf("%s PS: got %d matches, want %d", qs, len(res.Matches), len(want.Matches))
			}
		}
	}
	// View-based engines are rejected.
	q := MustParseQuery("//a//b")
	if _, err := EvaluateWithoutViews(nil, d, q, EngineViewJoin, nil); err == nil {
		t.Errorf("VJ without views: expected error")
	}
	if _, err := EvaluateWithoutViews(nil, d, q, EngineInterJoin, nil); err == nil {
		t.Errorf("IJ without views: expected error")
	}
}

// TestGeneralQueries: duplicate element types — the query class the paper
// defers to [5] — evaluated over raw streams and cross-checked against the
// direct evaluator.
func TestGeneralQueries(t *testing.T) {
	d, err := ParseDocumentString(
		`<a><a><b/><a><b/></a></a><b/><c><a><b/></a></c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, qs := range []string{"//a//a", "//a//a//b", "//a//b[//a]", "//a[//b][//c]//a", "//a/a/b"} {
		q, err := ParseQueryGeneral(qs)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		want := EvaluateDirect(d, q)
		res, err := EvaluateWithoutViews(nil, d, q, EngineTwigStack, nil)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		if !sameMatches(res, want) {
			t.Errorf("%s: got %d matches, want %d", qs, len(res.Matches), len(want.Matches))
		}
	}
	// The unique-label parser rejects what the general parser accepts.
	if _, err := ParseQuery("//a//a"); err == nil {
		t.Errorf("ParseQuery must reject duplicate labels")
	}
	if _, err := ParseQueryGeneral("//a//"); err == nil {
		t.Errorf("ParseQueryGeneral must still reject malformed input")
	}
}

// TestGeneralQueriesProperty: random general patterns (with forced
// duplicates) over random documents, raw-stream TwigStack vs the oracle.
func TestGeneralQueriesProperty(t *testing.T) {
	labels := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, err := ParseDocumentString(randomXML(rng))
		if err != nil {
			return false
		}
		// Random general pattern: 2-4 nodes, labels drawn with replacement.
		n := 2 + rng.Intn(3)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				sb.WriteString("//")
			} else if i == 0 {
				sb.WriteString("//")
			} else {
				sb.WriteString("/")
			}
			sb.WriteString(labels[rng.Intn(len(labels))])
		}
		q, err := ParseQueryGeneral(sb.String())
		if err != nil {
			t.Logf("parse %q: %v", sb.String(), err)
			return false
		}
		want := EvaluateDirect(d, q)
		res, err := EvaluateWithoutViews(nil, d, q, EngineTwigStack, &RunOptions{DiskBased: rng.Intn(2) == 0})
		if err != nil {
			t.Logf("%s: %v", q, err)
			return false
		}
		if !sameMatches(res, want) {
			t.Logf("seed=%d q=%s: got %d, want %d", seed, q, len(res.Matches), len(want.Matches))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestViewsBeatRawStreams reproduces the premise of the paper (§I): using
// materialized views prunes the element streams, so the same engine scans
// fewer elements than over raw streams.
func TestViewsBeatRawStreams(t *testing.T) {
	d := GenerateNasa(400)
	q := MustParseQuery("//field//footnote//para")
	vs, err := ParseViews("//field//footnote//para")
	if err != nil {
		t.Fatal(err)
	}
	mv, err := d.MaterializeViews(vs, SchemeElement)
	if err != nil {
		t.Fatal(err)
	}
	withViews, err := Evaluate(nil, d, q, mv, EngineTwigStack, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := EvaluateWithoutViews(nil, d, q, EngineTwigStack, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMatches(withViews, raw) {
		t.Fatalf("results disagree: %d vs %d", len(withViews.Matches), len(raw.Matches))
	}
	if withViews.Stats.ElementsScanned >= raw.Stats.ElementsScanned {
		t.Errorf("views should prune streams: %d vs %d scanned",
			withViews.Stats.ElementsScanned, raw.Stats.ElementsScanned)
	}
}
