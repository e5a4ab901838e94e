package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"viewjoin"
)

// Updates measures incremental view maintenance against the only
// alternative the paper's static setting leaves — re-materializing every
// view after each document change. A batch of random subtree updates
// (insert-before / append-child / delete-subtree on XMark items, fragments
// drawn both from the view alphabet and from foreign tags) is applied at
// growing rates; after every update the views are repaired with
// MaterializedView.Maintain and the byte-identity of the maintained stores
// against a fresh materialization is asserted — the maintenance path is
// only allowed to be faster, never different. Reported alongside the two
// times: how often the pure label-splice fast path fired, and how many list
// records a maintenance recomputed on average (the locality of the
// region-local derivation: the lists hold tens of thousands).
func Updates(cfg Config) error {
	cfg = cfg.withDefaults()
	w := cfg.Out
	views, err := viewjoin.ParseViews("//site//item//name; //description//keyword")
	if err != nil {
		return err
	}
	q := viewjoin.MustParseQuery("//site//item[//description//keyword]/name")

	fmt.Fprintf(w, "%-8s %12s %12s %9s %10s %11s\n",
		"updates", "maintain", "remat", "speedup", "fast-path", "recomputed")
	for _, u := range []int{1, 4, 16, 64} {
		var maintainT, rematT time.Duration
		var totalPages int64
		fastPath, recomputed, applied, matches := 0, 0, 0, 0
		// Each repeat replays an independent seeded update sequence on a
		// fresh document; a single draw would make the low-rate rows
		// hostage to whether that one update happened to hit the fast
		// path (a 1-in-3 event), so times accumulate across repeats.
		for r := 0; r < cfg.Repeats; r++ {
			d := viewjoin.GenerateXMark(cfg.XMarkScale)
			mv, err := d.MaterializeViews(views, viewjoin.SchemeLEp)
			if err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(int64(97 + 31*u + r)))
			for i := 0; i < u; i++ {
				upd, ok := randomXMarkUpdate(rng, d)
				if !ok {
					break // every item deleted; nothing left to target
				}
				au, err := d.Apply(upd)
				if err != nil {
					return fmt.Errorf("updates u=%d: apply: %w", u, err)
				}
				applied++
				t0 := time.Now()
				reps := make([]viewjoin.MaintainReport, len(mv))
				for vi, v := range mv {
					if reps[vi], err = v.Maintain(au); err != nil {
						return fmt.Errorf("updates u=%d: maintain: %w", u, err)
					}
				}
				maintainT += time.Since(t0)
				t1 := time.Now()
				fresh, err := d.MaterializeViews(views, viewjoin.SchemeLEp)
				if err != nil {
					return fmt.Errorf("updates u=%d: rematerialize: %w", u, err)
				}
				rematT += time.Since(t1)
				// The correctness bar, asserted every step: maintained
				// stores are byte-identical to re-materialized ones.
				for vi := range mv {
					var got, want bytes.Buffer
					if _, err := mv[vi].SaveView(&got); err != nil {
						return err
					}
					if _, err := fresh[vi].SaveView(&want); err != nil {
						return err
					}
					if !bytes.Equal(got.Bytes(), want.Bytes()) {
						return fmt.Errorf("updates u=%d step %d: maintained view %d differs from re-materialization",
							u, i, vi)
					}
				}
				for _, rep := range reps {
					totalPages += int64(rep.TotalPages)
					recomputed += rep.RecomputedEntries
					if rep.FastPath {
						fastPath++
					}
				}
			}
			// The maintained views must still evaluate correctly.
			res, err := viewjoin.Evaluate(d, q, mv, viewjoin.EngineViewJoin, nil)
			if err != nil {
				return fmt.Errorf("updates u=%d: evaluate: %w", u, err)
			}
			if want := viewjoin.EvaluateDirect(d, q); len(res.Matches) != len(want.Matches) {
				return fmt.Errorf("updates u=%d: maintained evaluation %d matches, oracle %d",
					u, len(res.Matches), len(want.Matches))
			}
			matches = len(res.Matches)
		}

		maints := applied * 2
		speedup := 0.0
		if maintainT > 0 {
			speedup = float64(rematT) / float64(maintainT)
		}
		fmt.Fprintf(w, "%-8d %12s %12s %8.1fx %9d/%d %11.1f\n",
			applied, fmtDur(maintainT), fmtDur(rematT), speedup,
			fastPath, maints, float64(recomputed)/float64(max(maints, 1)))
		series := fmt.Sprintf("u=%d", u)
		cfg.emit(Row{
			Experiment: "updates", Dataset: "xmark", Series: series,
			Variant: "maintain", TimeNanos: int64(maintainT),
			PagesWritten: totalPages, Matches: matches,
		})
		cfg.emit(Row{
			Experiment: "updates", Dataset: "xmark", Series: series,
			Variant: "rematerialize", TimeNanos: int64(rematT),
			Matches: matches,
		})
	}
	return nil
}

// randomXMarkUpdate draws one subtree update against d's current snapshot,
// targeting a random <item>. One third of insert fragments use foreign
// tags (exercising the maintenance fast path); the rest are spelled in the
// view alphabet and change view contents. Returns ok=false when the
// document has no items left to target.
func randomXMarkUpdate(rng *rand.Rand, d *viewjoin.Document) (viewjoin.Update, bool) {
	targets := viewjoin.EvaluateDirect(d, viewjoin.MustParseQuery("//item"))
	if len(targets.Matches) == 0 {
		return viewjoin.Update{}, false
	}
	row := targets.Matches[rng.Intn(len(targets.Matches))]
	start := row[len(row)-1].Start
	op := viewjoin.UpdateOp(rng.Intn(3))
	if op == viewjoin.DeleteSubtree {
		return viewjoin.Update{Op: viewjoin.DeleteSubtree, TargetStart: start}, true
	}
	frag, err := viewjoin.ParseDocumentString(updateFragment(rng))
	if err != nil {
		panic(err) // generator emits well-formed XML by construction
	}
	return viewjoin.Update{Op: op, TargetStart: start, Fragment: frag}, true
}

// updateFragment builds a small random fragment: foreign-tag subtrees that
// provably miss every view, or item subtrees that land in them.
func updateFragment(rng *rand.Rand) string {
	if rng.Intn(3) == 0 {
		return "<ext><zline/><zline/></ext>"
	}
	var b strings.Builder
	b.WriteString("<item>")
	for n := 1 + rng.Intn(3); n > 0; n-- {
		b.WriteString("<name/>")
		if rng.Intn(2) == 0 {
			b.WriteString("<description><keyword/></description>")
		}
	}
	b.WriteString("</item>")
	return b.String()
}
