package viewjoin

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestGrandCrossCheck is the repository's widest equivalence property: on
// random documents and random path queries, every engine (ViewJoin,
// TwigStack, PathStack, InterJoin), every storage scheme it supports, and
// both output approaches must return exactly the direct evaluator's
// matches, under both chunked and interleaved view factorizations.
func TestGrandCrossCheck(t *testing.T) {
	paths := []string{"//a//b", "//a/b//c", "//a//b//c//e", "//b//e", "//c//a//f"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, err := ParseDocumentString(randomXML(rng))
		if err != nil {
			return false
		}
		q := MustParseQuery(paths[rng.Intn(len(paths))])
		want := EvaluateDirect(d, q)

		// View factorizations: singleton, chunked pairs, interleaved.
		labels := q.Labels()
		var sets [][]string
		var single []string
		for _, l := range labels {
			single = append(single, "//"+l)
		}
		sets = append(sets, single)
		if len(labels) >= 2 {
			var chunked []string
			for i := 0; i < len(labels); i += 2 {
				v := "//" + labels[i]
				if i+1 < len(labels) {
					v += "//" + labels[i+1]
				}
				chunked = append(chunked, v)
			}
			sets = append(sets, chunked)
			var evens, odds []string
			for i, l := range labels {
				if i%2 == 0 {
					evens = append(evens, l)
				} else {
					odds = append(odds, l)
				}
			}
			interleaved := []string{"//" + strings.Join(evens, "//")}
			if len(odds) > 0 {
				interleaved = append(interleaved, "//"+strings.Join(odds, "//"))
			}
			sets = append(sets, interleaved)
		}

		for _, set := range sets {
			vs, err := ParseViews(strings.Join(set, ";"))
			if err != nil {
				t.Logf("ParseViews(%v): %v", set, err)
				return false
			}
			for _, scheme := range []StorageScheme{SchemeElement, SchemeLE, SchemeLEp} {
				mv, err := d.MaterializeViews(vs, scheme)
				if err != nil {
					t.Logf("materialize: %v", err)
					return false
				}
				for _, eng := range []Engine{EngineViewJoin, EngineTwigStack, EnginePathStack} {
					for _, disk := range []bool{false, true} {
						if eng == EnginePathStack && disk {
							continue // PathStack has no disk-based variant
						}
						res, err := Evaluate(nil, d, q, mv, eng, &RunOptions{DiskBased: disk})
						if err != nil {
							t.Logf("%v+%v disk=%v: %v", eng, scheme, disk, err)
							return false
						}
						if !sameMatches(res, want) {
							t.Logf("seed=%d q=%s views=%v %v+%v disk=%v: %d vs %d",
								seed, q, set, eng, scheme, disk, len(res.Matches), len(want.Matches))
							return false
						}
					}
				}
			}
			// InterJoin over tuple views.
			tv, err := d.MaterializeViews(vs, SchemeTuple)
			if err != nil {
				return false
			}
			res, err := Evaluate(nil, d, q, tv, EngineInterJoin, nil)
			if err != nil {
				t.Logf("IJ: %v", err)
				return false
			}
			if !sameMatches(res, want) {
				t.Logf("seed=%d q=%s views=%v IJ: %d vs %d", seed, q, set, len(res.Matches), len(want.Matches))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// roundTripViews pushes every view through SaveView → LoadViewBytes and returns
// the reloaded set, failing the test on any serialization error.
func roundTripViews(t *testing.T, d *Document, mv []*MaterializedView) []*MaterializedView {
	t.Helper()
	out := make([]*MaterializedView, len(mv))
	for i, v := range mv {
		var buf bytes.Buffer
		n, err := v.SaveView(&buf)
		if err != nil {
			t.Fatalf("SaveView(%s): %v", v.Pattern(), err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("SaveView(%s) reported %d bytes, wrote %d", v.Pattern(), n, buf.Len())
		}
		lv, err := d.LoadViewBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("LoadViewBytes(%s): %v", v.Pattern(), err)
		}
		out[i] = lv
	}
	return out
}

// TestPersistenceRoundTripCrossCheck is the persistence equivalence
// property: for every engine and its scheme, evaluating over views that
// went through a SaveView → LoadViewBytes round trip must be byte-identical —
// matches and deterministic counters both — to evaluating over the
// in-memory originals. It also pins the structured failure modes: a
// truncated stream is an ErrViewTruncated at every cut point, and a view
// loaded into the wrong document is a *DocMismatchError.
func TestPersistenceRoundTripCrossCheck(t *testing.T) {
	d := GenerateXMark(0.05)
	for _, c := range preparedCases() {
		t.Run(c.name, func(t *testing.T) {
			q, mv := materializeCase(t, d, c)
			want, err := Evaluate(nil, d, q, mv, c.eng, nil)
			if err != nil {
				t.Fatal(err)
			}
			loaded := roundTripViews(t, d, mv)
			got, err := Evaluate(nil, d, q, loaded, c.eng, nil)
			if err != nil {
				t.Fatalf("Evaluate over reloaded views: %v", err)
			}
			if !identicalMatches(got, want) {
				t.Fatalf("reloaded views: %d matches, in-memory %d", len(got.Matches), len(want.Matches))
			}
			if !sameCounters(got.Stats, want.Stats) {
				t.Fatalf("reloaded views changed the cost: %+v vs %+v", got.Stats, want.Stats)
			}
			// Prepared plans over reloaded views must agree too.
			p, err := Prepare(d, q, loaded, c.eng, nil)
			if err != nil {
				t.Fatal(err)
			}
			pres, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !identicalMatches(pres, want) {
				t.Fatalf("prepared over reloaded views: %d matches, want %d", len(pres.Matches), len(want.Matches))
			}
		})
	}

	t.Run("Truncated", func(t *testing.T) {
		vs, err := ParseViews("//site//item//name")
		if err != nil {
			t.Fatal(err)
		}
		mv, err := d.MaterializeViews(vs, SchemeLEp)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := mv[0].SaveView(&buf); err != nil {
			t.Fatal(err)
		}
		full := buf.Bytes()
		// Cut the stream at a spread of prefixes covering the fingerprint
		// header, the store header, and mid-payload truncation.
		cuts := []int{0, 1, 7, 8, 9, len(full) / 2, len(full) - 1}
		for _, cut := range cuts {
			_, err := d.LoadViewBytes(full[:cut])
			if err == nil {
				t.Fatalf("LoadViewBytes accepted an image truncated to %d/%d bytes", cut, len(full))
			}
			if !errors.Is(err, ErrViewTruncated) {
				t.Errorf("cut at %d: error %v does not match ErrViewTruncated", cut, err)
			}
		}
	})

	t.Run("DocMismatch", func(t *testing.T) {
		other := GenerateXMark(0.03)
		vs, err := ParseViews("//site//item//name")
		if err != nil {
			t.Fatal(err)
		}
		mv, err := other.MaterializeViews(vs, SchemeLEp)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := mv[0].SaveView(&buf); err != nil {
			t.Fatal(err)
		}
		_, err = d.LoadViewBytes(buf.Bytes())
		var dm *DocMismatchError
		if !errors.As(err, &dm) {
			t.Fatalf("LoadViewBytes into the wrong document: error %v (%T), want *DocMismatchError", err, err)
		}
		if dm.Want != treeFingerprint(d.tree()) || dm.Saved != treeFingerprint(other.tree()) {
			t.Errorf("DocMismatchError fingerprints %x/%x, want %x/%x",
				dm.Saved, dm.Want, treeFingerprint(other.tree()), treeFingerprint(d.tree()))
		}
	})
}

// TestBenchmarkWorkloadCrossCheck runs every benchmark query of the paper's
// workload through every applicable engine/scheme pair on small instances
// of both datasets and demands exact agreement with the direct evaluator —
// the end-to-end guarantee behind the experiment tables.
func TestBenchmarkWorkloadCrossCheck(t *testing.T) {
	type wl struct {
		doc     *Document
		queries map[string][2]string // name -> query, views
	}
	xm := GenerateXMark(0.03)
	ns := GenerateNasa(150)
	jobs := []wl{
		{xm, map[string][2]string{
			"Q2":  {"//site/open_auctions/open_auction/bidder/increase", "//site//increase; //open_auctions//open_auction//bidder"},
			"Q14": {"//site//item[//description//keyword]/name", "//site//item//name; //description//keyword"},
		}},
		{ns, map[string][2]string{
			"N1": {"//field//footnote//para", "//field//para; //footnote"},
			"N6": {"//journal[//suffix][title]/date/year", "//journal/date/year; //suffix; //title"},
		}},
	}
	for _, job := range jobs {
		for name, qv := range job.queries {
			q := MustParseQuery(qv[0])
			vs, err := ParseViews(qv[1])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := EvaluateDirect(job.doc, q)
			for _, scheme := range []StorageScheme{SchemeElement, SchemeLE, SchemeLEp} {
				mv, err := job.doc.MaterializeViews(vs, scheme)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				engines := []Engine{EngineViewJoin, EngineTwigStack}
				if q.IsPath() {
					engines = append(engines, EnginePathStack)
				}
				for _, eng := range engines {
					res, err := Evaluate(nil, job.doc, q, mv, eng, nil)
					if err != nil {
						t.Fatalf("%s %v+%v: %v", name, eng, scheme, err)
					}
					if !sameMatches(res, want) {
						t.Errorf("%s %v+%v: %d matches, want %d", name, eng, scheme, len(res.Matches), len(want.Matches))
					}
					// A reused prepared plan must reproduce the one-shot
					// evaluation exactly, run after run.
					p, err := Prepare(job.doc, q, mv, eng, nil)
					if err != nil {
						t.Fatalf("%s %v+%v: Prepare: %v", name, eng, scheme, err)
					}
					for run := 0; run < 2; run++ {
						pres, err := p.Run()
						if err != nil {
							t.Fatalf("%s %v+%v: Run %d: %v", name, eng, scheme, run, err)
						}
						if !identicalMatches(pres, res) {
							t.Errorf("%s %v+%v: prepared run %d diverges from one-shot (%d vs %d matches)",
								name, eng, scheme, run, len(pres.Matches), len(res.Matches))
						}
					}
				}
			}
			if q.IsPath() {
				tv, err := job.doc.MaterializeViews(vs, SchemeTuple)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				res, err := Evaluate(nil, job.doc, q, tv, EngineInterJoin, nil)
				if err != nil {
					t.Fatalf("%s IJ: %v", name, err)
				}
				if !sameMatches(res, want) {
					t.Errorf("%s IJ: %d matches, want %d", name, len(res.Matches), len(want.Matches))
				}
				p, err := Prepare(job.doc, q, tv, EngineInterJoin, nil)
				if err != nil {
					t.Fatalf("%s IJ: Prepare: %v", name, err)
				}
				for run := 0; run < 2; run++ {
					pres, err := p.Run()
					if err != nil {
						t.Fatalf("%s IJ: Run %d: %v", name, run, err)
					}
					if !identicalMatches(pres, res) {
						t.Errorf("%s IJ: prepared run %d diverges from one-shot (%d vs %d matches)",
							name, run, len(pres.Matches), len(res.Matches))
					}
				}
			}
		}
	}
}
