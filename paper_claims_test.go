package viewjoin_test

import (
	"strings"
	"testing"

	"viewjoin"
	"viewjoin/internal/tpq"
	"viewjoin/internal/workload"
)

// TestPaperClaims asserts §VI of the paper as relations between
// deterministic counters. Fig 5, Fig 6 and Table V are read off the rows of
// testdata/counters_golden.json, so they run under -short and a careless
// -update that breaks a claim fails here even though TestCountersGolden
// then passes; Table IV and Fig 7 need their own documents and are
// evaluated. Each relation is stated in the strongest form the committed
// counters support (EXPERIMENTS.md tables what does not hold). Table II's
// picks are pinned by internal/viewsel TestExample51.
func TestPaperClaims(t *testing.T) {
	rows := map[string]goldenRow{}
	var entries []string // the 30 catalogue entries, in file order
	for _, r := range readGolden(t) {
		rows[r.Key] = r
		if q, _, _ := strings.Cut(r.Key, "/"); len(entries) == 0 || entries[len(entries)-1] != q {
			entries = append(entries, q)
		}
	}
	if len(entries) != 30 {
		t.Fatalf("%d catalogue entries in %s, want 30", len(entries), countersGoldenPath)
	}

	// Every claim is a relation between one entry's rows; at resolves a row
	// of the entry under test by the rest of its key, whole by its combo,
	// whole-document — the configuration the paper ran.
	type lookup func(rest string) goldenRow
	vjSchemes := []string{"VJ+E", "VJ+LE", "VJ+LEp"}
	claims := []struct {
		name  string
		only  string // entries the claim is asserted on; "" is all of them
		holds func(at, whole lookup) bool
	}{
		{"Fig 5: comparisons(VJ+s) < comparisons(TS+E) for every scheme s", "", func(_, whole lookup) bool {
			for _, s := range vjSchemes {
				if whole(s).Comparisons >= whole("TS+E").Comparisons {
					return false
				}
			}
			return true
		}},
		{"Fig 5: scanned(VJ+E) <= scanned(TS+E), and VJ+E follows no pointer", "", func(_, whole lookup) bool {
			return whole("VJ+E").Scanned <= whole("TS+E").Scanned && whole("VJ+E").Derefs == 0
		}},
		// Lemma 4.1's form: a jump may re-read its landing record, so VJ's
		// scan is bounded by TS's plus one record per pointer followed.
		{"Fig 5: scanned(VJ+s) <= scanned(TS+E) + derefs(VJ+s)", "", func(_, whole lookup) bool {
			for _, s := range vjSchemes {
				if whole(s).Scanned > whole("TS+E").Scanned+whole(s).Derefs {
					return false
				}
			}
			return true
		}},
		{"Fig 5: pointers skip, scanned(VJ+LE) and scanned(VJ+LEp) < scanned(TS+E)", "N1 N5 N6 N7 N8 PV1 PV2 PV3 TV1 TV2 TV3", func(_, whole lookup) bool {
			return whole("VJ+LE").Scanned < whole("TS+E").Scanned && whole("VJ+LEp").Scanned < whole("TS+E").Scanned
		}},
		{"Fig 5: TS scans and compares identically over E, LE and LEp and follows no pointer", "", func(_, whole lookup) bool {
			e := whole("TS+E")
			for _, s := range []string{"TS+LE", "TS+LEp"} {
				if r := whole(s); r.Scanned != e.Scanned || r.Comparisons != e.Comparisons || r.Derefs != 0 {
					return false
				}
			}
			return e.Derefs == 0
		}},
		{"Fig 5: TS pays for the pointers it ignores, pagesRead E < LEp <= LE", "", func(_, whole lookup) bool {
			return whole("TS+E").PagesRead < whole("TS+LEp").PagesRead &&
				whole("TS+LEp").PagesRead <= whole("TS+LE").PagesRead
		}},
		{"Table V: disk-based output scans, compares and matches as memory-based does", "", func(at, whole lookup) bool {
			for _, c := range []string{"TS+E", "VJ+LE"} {
				m, d := whole(c), at(c+"/disk")
				if m.Scanned != d.Scanned || m.Comparisons != d.Comparisons || m.Matches != d.Matches {
					return false
				}
			}
			return true
		}},
		{"Table V: memory-based writes no page; disk-based reads back exactly what it wrote", "", func(at, whole lookup) bool {
			for _, c := range []string{"TS+E", "VJ+LE"} {
				m, d := whole(c), at(c+"/disk")
				if m.PagesWritten != 0 || d.PagesWritten <= 0 || d.PagesRead != m.PagesRead+d.PagesWritten {
					return false
				}
			}
			return true
		}},
		// A paged run flushes partial windows, and the extension resumes each
		// flush from the record it landed on: partial flushing adds
		// enumeration, never a record, a pointer or a page.
		{"paging: a paged run reads exactly the pages the whole run reads", "", func(at, whole lookup) bool {
			return at("VJ+LEp/paged").PagesRead == whole("VJ+LEp").PagesRead
		}},
		{"paging: a paged run scans exactly what the whole run scans", "", func(at, whole lookup) bool {
			p, w := at("VJ+LEp/paged"), whole("VJ+LEp")
			return p.Scanned == w.Scanned && p.Derefs == w.Derefs
		}},
	}
	for _, c := range claims {
		for _, q := range entries {
			if c.only != "" && !strings.Contains(" "+c.only+" ", " "+q+" ") {
				continue
			}
			at := func(rest string) goldenRow {
				r, ok := rows[q+"/"+rest]
				if !ok {
					t.Fatalf("%s: no row %s/%s in %s", c.name, q, rest, countersGoldenPath)
				}
				return r
			}
			whole := func(combo string) goldenRow { return at(combo + "/whole") }
			if !c.holds(at, whole) {
				t.Errorf("%s: fails on %s", c.name, q)
			}
		}
	}

	// Every engine, scheme and variant finds the same matches,
	// and views never cost more than the raw streams they replace (that no
	// run re-touches a page is TestNoRunRetouchesAPage).
	for key, r := range rows {
		q, _, _ := strings.Cut(key, "/")
		ts := rows[q+"/TS+E/whole"]
		if r.Matches != ts.Matches {
			t.Errorf("%s: %d matches, TS+E found %d", key, r.Matches, ts.Matches)
		}
		if strings.HasSuffix(key, "/TS/raw") &&
			(ts.Scanned > r.Scanned || ts.Comparisons > r.Comparisons || ts.PagesRead > r.PagesRead) {
			t.Errorf("%s: TS over E views costs more than TS over the raw streams", q)
		}
	}

	// Fig 6: only the endpoints of the interleaving trend hold in counters
	// (PV3 > PV2 and TV3 > TV2; tabled in EXPERIMENTS.md).
	for _, p := range []string{"PV", "TV"} {
		hi := rows[p+"1/VJ+LEp/whole"].Comparisons
		lo := rows[p+"4/VJ+LEp/whole"].Comparisons
		if lo >= hi {
			t.Errorf("Fig 6: comparisons(VJ+LEp) %s4 = %d, not below %s1 = %d", p, lo, p, hi)
		}
	}

	t.Run("TableIV", func(t *testing.T) {
		if testing.Short() {
			t.Skip("materializes every catalogue view in three schemes")
		}
		xmark, nasa := viewjoin.GenerateXMark(0.25), viewjoin.GenerateNasa(1000)
		v1, v2 := workload.TableIVViews()
		seen := map[string]bool{}
		check := func(doc *viewjoin.Document, views []*tpq.Pattern) {
			for _, p := range views {
				if seen[p.String()] {
					continue
				}
				seen[p.String()] = true
				vq := viewjoin.MustParseQuery(p.String())
				var bytes [3]int64
				var ptrs [3]int
				for i, s := range []viewjoin.StorageScheme{viewjoin.SchemeElement, viewjoin.SchemeLEp, viewjoin.SchemeLE} {
					mv, err := doc.MaterializeView(vq, s, nil)
					if err != nil {
						t.Fatalf("%s %s: %v", p, s, err)
					}
					bytes[i], ptrs[i] = mv.SizeBytes(), mv.NumPointers()
				}
				if bytes[0] > bytes[1] || bytes[1] > bytes[2] {
					t.Errorf("%s: bytes E %d, LEp %d, LE %d not ascending", p, bytes[0], bytes[1], bytes[2])
				}
				if ptrs[0] != 0 || ptrs[1] > ptrs[2] {
					t.Errorf("%s: pointers E %d, LEp %d, LE %d", p, ptrs[0], ptrs[1], ptrs[2])
				}
			}
		}
		check(xmark, []*tpq.Pattern{v1, v2})
		for _, wq := range workload.All() {
			if wq.Name[0] == 'Q' {
				check(xmark, wq.Views)
			} else {
				check(nasa, wq.Views)
			}
		}
		for _, c := range workload.TableIII() {
			check(nasa, c.Views)
		}
	})

	t.Run("Fig7", func(t *testing.T) {
		if testing.Short() {
			t.Skip("generates XMark at scale 1, 2 and 3")
		}
		// Linear growth is exact at whole scale factors: the second
		// difference of every cost over x1, x2, x3 is zero.
		names := []string{"Q11", "Q19"}
		var stats [2][3]viewjoin.Stats
		for x := range stats[0] {
			doc := viewjoin.GenerateXMark(float64(x + 1))
			for n, name := range names {
				wq := workload.All()[name]
				mv, err := doc.MaterializeViews(viewQueries(wq.Views), viewjoin.SchemeLE)
				if err != nil {
					t.Fatal(err)
				}
				res, err := viewjoin.Evaluate(nil, doc, viewjoin.MustParseQuery(wq.Pattern.String()), mv, viewjoin.EngineViewJoin, nil)
				if err != nil {
					t.Fatal(err)
				}
				stats[n][x] = res.Stats
			}
		}
		for n, name := range names {
			a, b, c := stats[n][0], stats[n][1], stats[n][2]
			for _, m := range []struct {
				what       string
				x1, x2, x3 int64
			}{
				{"scanned", a.ElementsScanned, b.ElementsScanned, c.ElementsScanned},
				{"comparisons", a.Comparisons, b.Comparisons, c.Comparisons},
				{"peak memory", a.PeakMemoryBytes, b.PeakMemoryBytes, c.PeakMemoryBytes},
			} {
				if m.x1 <= 0 || m.x3-m.x2 != m.x2-m.x1 {
					t.Errorf("%s VJ+LE %s over x1, x2, x3 = %d, %d, %d: not linear", name, m.what, m.x1, m.x2, m.x3)
				}
			}
		}
	})
}
