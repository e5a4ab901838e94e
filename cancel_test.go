package viewjoin

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// countdownCtx is a deterministic context: Err returns nil for the first
// `fuel` calls and context.DeadlineExceeded afterwards. It lets the tests
// abort an evaluation mid-run at an exact interrupt poll without depending
// on wall-clock timing.
type countdownCtx struct {
	fuel int64
	used atomic.Int64
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	if c.used.Add(1) > c.fuel {
		return context.DeadlineExceeded
	}
	return nil
}

// checkCanceled asserts the error shape every aborted evaluation must have:
// a *CanceledError carrying the engine and query, unwrapping to the
// context's own error.
func checkCanceled(t *testing.T, err error, eng Engine, q *Query, cause error) {
	t.Helper()
	if err == nil {
		t.Fatal("expected a cancellation error, got nil")
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v (%T) is not a *CanceledError", err, err)
	}
	if ce.Engine != eng {
		t.Errorf("CanceledError.Engine = %v, want %v", ce.Engine, eng)
	}
	if ce.Query != q.String() {
		t.Errorf("CanceledError.Query = %q, want %q", ce.Query, q.String())
	}
	if !errors.Is(err, cause) {
		t.Errorf("errors.Is(%v, %v) = false, want true", err, cause)
	}
}

// TestRunContextAlreadyCanceled verifies that an expired context aborts
// every engine before any evaluation work, that the structured error
// exposes engine, query and cause, and — by re-running the same plan
// without a context — that the pooled scratch recycled through the aborted
// run carries no residue.
func TestRunContextAlreadyCanceled(t *testing.T) {
	d := GenerateXMark(0.05)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range preparedCases() {
		t.Run(c.name, func(t *testing.T) {
			q, mv := materializeCase(t, d, c)
			p, err := Prepare(d, q, mv, c.eng, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.RunWith(canceled, nil)
			if res != nil {
				t.Fatalf("aborted run returned a result with %d matches", len(res.Matches))
			}
			checkCanceled(t, err, c.eng, q, context.Canceled)
			// The plan must stay fully usable after an aborted run.
			again, err := p.RunWith(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !identicalMatches(again, want) {
				t.Fatalf("post-cancel run: %d matches, want %d — cancellation left residue in pooled scratch",
					len(again.Matches), len(want.Matches))
			}
		})
	}
}

// TestRunContextMidRun expires the context after a fixed number of
// interrupt polls, so every engine is aborted somewhere inside its main
// loop (not at the upfront check) — the cooperative checkpoints must
// propagate the error out with no partial results, and the plan must
// recover on the next run.
func TestRunContextMidRun(t *testing.T) {
	d := GenerateXMark(0.05)
	for _, c := range preparedCases() {
		t.Run(c.name, func(t *testing.T) {
			q, mv := materializeCase(t, d, c)
			p, err := Prepare(d, q, mv, c.eng, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			// fuel=2: survive the upfront check and the first engine poll,
			// then trip on the second.
			ctx := &countdownCtx{fuel: 2}
			res, err := p.RunWith(ctx, nil)
			if res != nil {
				t.Fatalf("aborted run returned a result with %d matches", len(res.Matches))
			}
			checkCanceled(t, err, c.eng, q, context.DeadlineExceeded)
			again, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !identicalMatches(again, want) {
				t.Fatalf("post-cancel run: %d matches, want %d", len(again.Matches), len(want.Matches))
			}
		})
	}
}

// TestEvaluateContextOption verifies the one-shot path: Evaluate's ctx
// argument bounds it exactly as the RunWith context bounds a prepared run.
func TestEvaluateContextOption(t *testing.T) {
	d := GenerateXMark(0.05)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range preparedCases() {
		t.Run(c.name, func(t *testing.T) {
			q, mv := materializeCase(t, d, c)
			res, err := Evaluate(canceled, d, q, mv, c.eng, nil)
			if res != nil {
				t.Fatalf("aborted Evaluate returned a result with %d matches", len(res.Matches))
			}
			checkCanceled(t, err, c.eng, q, context.Canceled)
			// The same call with a live context must evaluate normally.
			res, err = Evaluate(context.Background(), d, q, mv, c.eng, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := EvaluateDirect(d, q)
			if !sameMatches(res, want) {
				t.Fatalf("live-context Evaluate: %d matches, oracle %d", len(res.Matches), len(want.Matches))
			}
		})
	}
}

// TestEvaluateWithoutViewsContext covers the raw-stream path, whose ctx
// argument must abort both before the run and in the middle of it.
func TestEvaluateWithoutViewsContext(t *testing.T) {
	d := GenerateXMark(0.05)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	q := MustParseQuery("//site//open_auction//bidder//increase")
	for _, eng := range []Engine{EngineTwigStack, EnginePathStack} {
		t.Run(eng.String(), func(t *testing.T) {
			res, err := EvaluateWithoutViews(canceled, d, q, eng, nil)
			if res != nil {
				t.Fatalf("aborted run returned a result with %d matches", len(res.Matches))
			}
			checkCanceled(t, err, eng, q, context.Canceled)
			ctx := &countdownCtx{fuel: 2}
			res, err = EvaluateWithoutViews(ctx, d, q, eng, nil)
			if res != nil {
				t.Fatalf("mid-run abort returned a result with %d matches", len(res.Matches))
			}
			checkCanceled(t, err, eng, q, context.DeadlineExceeded)
		})
	}
}

// starvedTimerCtx models a context whose deadline has passed but whose
// timer goroutine has not yet run — Err() still returns nil. This is the
// steady state on a single-CPU machine while an evaluation loop holds the
// processor: the interrupt hook must trip off the Deadline() clock
// comparison alone, not wait for the starved timer to flip Err().
type starvedTimerCtx struct{ dl time.Time }

func (c *starvedTimerCtx) Deadline() (time.Time, bool) { return c.dl, true }
func (c *starvedTimerCtx) Done() <-chan struct{}       { return nil }
func (c *starvedTimerCtx) Value(any) any               { return nil }
func (c *starvedTimerCtx) Err() error                  { return nil }

// TestRunContextStarvedTimer verifies deadline enforcement does not depend
// on the context's own timer firing: a context with an expired deadline and
// a perpetually-nil Err() must still abort every engine with
// context.DeadlineExceeded.
func TestRunContextStarvedTimer(t *testing.T) {
	d := GenerateXMark(0.05)
	ctx := &starvedTimerCtx{dl: time.Now().Add(-time.Hour)}
	for _, c := range preparedCases() {
		t.Run(c.name, func(t *testing.T) {
			q, mv := materializeCase(t, d, c)
			p, err := Prepare(d, q, mv, c.eng, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.RunWith(ctx, nil)
			if res != nil {
				t.Fatalf("aborted run returned a result with %d matches", len(res.Matches))
			}
			checkCanceled(t, err, c.eng, q, context.DeadlineExceeded)
		})
	}
}
