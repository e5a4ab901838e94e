package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"

	"viewjoin"
)

// The verify step checks that the program's outputs are correct. It runs
// outside every timed region, and any error from it fails the run.

// verifyOracle checks, on a reduced document from the same generator and
// seed, that every catalogue query's rows from VJ+LEp, TS+E, PS+E and
// IJ+T (the last two on path queries) equal the brute-force oracle's row
// for row. The oracle is quadratic, which is why the document is reduced.
func verifyOracle(cfg config, in *instance) error {
	var xml []byte
	var err error
	if in.def.nasa {
		xml, err = nasaXML(cfg.sizes.oracleNasa, cfg.seed)
	} else {
		xml, err = xmarkXML(cfg.sizes.oracleXMark, cfg.seed)
	}
	if err != nil {
		return err
	}
	doc, err := viewjoin.ParseDocument(bytes.NewReader(xml))
	if err != nil {
		return fmt.Errorf("oracle document: %w", err)
	}
	vc := newViewCache(doc)
	want := make(map[string][][]viewjoin.Node)
	for _, arm := range engineArms {
		plans, err := buildPlans(vc, in.cat, arm.scheme, arm.engine, arm.pathOnly)
		if err != nil {
			return err
		}
		for _, p := range plans {
			if want[p.cat.name] == nil {
				want[p.cat.name] = viewjoin.EvaluateDirect(doc, p.q).Matches
			}
			res, err := p.prepared.Run()
			if err != nil {
				return fmt.Errorf("oracle check %s %v: %w", p.cat.name, arm.engine, err)
			}
			if !sameRows(res.Matches, want[p.cat.name]) {
				return fmt.Errorf("oracle check %s: %v over %v returns %d rows that differ from the oracle's %d",
					p.cat.name, arm.engine, arm.scheme, len(res.Matches), len(want[p.cat.name]))
			}
		}
	}
	return nil
}

// engineArms are the engine and storage scheme pairs the paper compares.
var engineArms = []struct {
	engine   viewjoin.Engine
	scheme   viewjoin.StorageScheme
	pathOnly bool
}{
	{viewjoin.EngineViewJoin, viewjoin.SchemeLEp, false},
	{viewjoin.EngineTwigStack, viewjoin.SchemeElement, false},
	{viewjoin.EnginePathStack, viewjoin.SchemeElement, true},
	{viewjoin.EngineInterJoin, viewjoin.SchemeTuple, true},
}

func sameRows(a, b [][]viewjoin.Node) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// verifyFull checks the workload's own document: each plan's match count
// and row checksum must agree between VJ+LEp and TS+E. It records the
// agreed result on the plan, which every timed operation is then checked
// against. For a serving workload it also walks every query once with
// full decoding and compares each page with the library's rows.
func verifyFull(in *instance) error {
	var err error
	if in.plans == nil {
		in.plans, err = buildPlans(in.vc, in.cat, viewjoin.SchemeLEp, viewjoin.EngineViewJoin, false)
		if err != nil {
			return err
		}
	}
	ts, err := buildPlans(newViewCache(in.doc), in.cat, viewjoin.SchemeElement, viewjoin.EngineTwigStack, false)
	if err != nil {
		return err
	}
	rows := make([][][]viewjoin.Node, len(in.plans))
	for i, p := range in.plans {
		res, err := p.prepared.Run()
		if err != nil {
			return fmt.Errorf("verify %s: %w", p.cat.name, err)
		}
		other, err := ts[i].prepared.Run()
		if err != nil {
			return fmt.Errorf("verify %s TS: %w", p.cat.name, err)
		}
		p.count = len(res.Matches)
		if len(other.Matches) != p.count || rowsSum(other.Matches) != rowsSum(res.Matches) {
			return fmt.Errorf("verify %s: VJ+LEp returns %d rows (sum %x), TS+E %d (sum %x)",
				p.cat.name, p.count, rowsSum(res.Matches), len(other.Matches), rowsSum(other.Matches))
		}
		rows[i] = res.Matches
	}
	if in.srv == nil {
		return nil
	}
	h := in.srv.Handler()
	for _, w := range in.walks {
		w.total = in.plans[w.class].count
		cursor := ""
		for page := 0; page < w.pages; page++ {
			code, body, _ := post(h, "/query", w.body(cursor))
			var resp struct { // row keys match Node's fields case-insensitively
				MatchCount int               `json:"match_count"`
				Matches    [][]viewjoin.Node `json:"matches"`
				Cursor     string            `json:"cursor"`
			}
			if err := json.Unmarshal(body, &resp); err != nil || code != http.StatusOK {
				return fmt.Errorf("verify %s page %d: status %d: %v", in.classes[w.class], page, code, err)
			}
			lo := min(page*w.limit, w.total)
			want := rows[w.class][lo:min(lo+w.limit, w.total)]
			if resp.MatchCount != len(want) || rowsSum(resp.Matches) != rowsSum(want) {
				return fmt.Errorf("verify %s page %d: server returns %d rows that differ from the library's %d",
					in.classes[w.class], page, resp.MatchCount, len(want))
			}
			if cursor = resp.Cursor; cursor == "" {
				break
			}
		}
	}
	return nil
}

// verifyUpdated checks update-mixed's end state: every maintained view
// must serialize byte for byte like a fresh materialization of the final
// document, and Q13 and Q14 over the maintained views must equal the
// oracle on it.
func verifyUpdated(in *instance) error {
	for _, mv := range in.views {
		fresh, err := in.doc.MaterializeView(mv.Pattern(), mv.Scheme(), nil)
		if err != nil {
			return fmt.Errorf("verify update: %w", err)
		}
		var got, want bytes.Buffer
		if _, err := mv.SaveView(&got); err != nil {
			return fmt.Errorf("verify update: save %s: %w", mv.Pattern(), err)
		}
		if _, err := fresh.SaveView(&want); err != nil {
			return fmt.Errorf("verify update: save fresh %s: %w", mv.Pattern(), err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			return fmt.Errorf("verify update: maintained view %s differs from a fresh materialization at epoch %d",
				mv.Pattern(), in.doc.Epoch())
		}
	}
	plans, err := buildPlans(in.vc, in.cat, viewjoin.SchemeLEp, viewjoin.EngineViewJoin, false)
	if err != nil {
		return fmt.Errorf("verify update: %w", err)
	}
	for _, p := range plans {
		res, err := p.prepared.Run()
		if err != nil {
			return fmt.Errorf("verify update %s: %w", p.cat.name, err)
		}
		if want := viewjoin.EvaluateDirect(in.doc, p.q).Matches; !sameRows(res.Matches, want) {
			return fmt.Errorf("verify update %s: %d rows over maintained views differ from the oracle's %d",
				p.cat.name, len(res.Matches), len(want))
		}
	}
	return nil
}
