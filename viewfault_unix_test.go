//go:build unix

package viewjoin

import (
	"context"
	"errors"
	"os"
	"testing"

	"viewjoin/internal/obs"
)

// mapViews saves the view set to files and loads each with LoadViewMmap.
func mapViews(t *testing.T, d *Document, viewsStr string, scheme StorageScheme) ([]*MaterializedView, []string) {
	t.Helper()
	paths := saveViewFiles(t, d, viewsStr, scheme)
	out := make([]*MaterializedView, len(paths))
	for i, p := range paths {
		mv, err := d.LoadViewMmap(p)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mv.Release() })
		out[i] = mv
	}
	return out, paths
}

// TestTruncatedMappingIsAnError: a container truncated under its live
// mapping — the one way a validated mapped view can still fault — fails
// the runs and the Prepares that touch the lost pages with a
// *ViewFaultError, untraced and traced alike (a traced run also describes
// the plan from the views), and leaves plans over other views untouched.
// (Only a real mapping can fault, hence the build tag.)
func TestTruncatedMappingIsAnError(t *testing.T) {
	const viewSet = "//field//para; //footnote"
	d := GenerateNasa(400)
	q := MustParseQuery("//field//footnote//para")
	want := EvaluateDirect(d, q)
	healthy, _ := mapViews(t, d, viewSet, SchemeLEp)
	damaged, paths := mapViews(t, d, viewSet, SchemeLEp)
	tuples, tuplePaths := mapViews(t, d, viewSet, SchemeTuple)
	plans := map[string]*PreparedQuery{}
	for name, mvs := range map[string][]*MaterializedView{"healthy": healthy, "damaged": damaged} {
		p, err := Prepare(d, q, mvs, EngineViewJoin, nil)
		if err != nil {
			t.Fatal(err)
		}
		plans[name] = p
	}
	for _, p := range []string{paths[0], tuplePaths[0]} {
		if fi, err := os.Stat(p); err != nil || fi.Size() <= 2*4096 {
			t.Fatalf("fixture %s: %v, or too small to lose pages", p, err)
		}
		// In place — what SaveViewFile exists to never do.
		if err := os.Truncate(p, 4096); err != nil {
			t.Fatal(err)
		}
	}

	var vf *ViewFaultError
	for _, traced := range []bool{false, true} {
		ro := func() *RunOptions {
			if traced {
				return &RunOptions{Tracer: obs.NewRecorder()}
			}
			return nil
		}
		_, err := plans["damaged"].RunWith(context.Background(), ro())
		if !errors.As(err, &vf) || vf.Addr == 0 {
			t.Fatalf("traced=%v over the truncated file: error %v, want *ViewFaultError", traced, err)
		}
		res, err := plans["healthy"].RunWith(context.Background(), ro())
		if err != nil || !identicalMatches(res, want) {
			t.Fatalf("traced=%v over the intact files: err %v, or rows differ from direct", traced, err)
		}
		if traced && (res.Trace == nil || res.Trace.Plan == nil) {
			t.Fatalf("traced run over the intact files reported no plan")
		}
	}
	if _, err := Evaluate(nil, d, q, damaged, EngineTwigStack, nil); !errors.As(err, &vf) {
		t.Errorf("fresh evaluation over the truncated file: error %v, want *ViewFaultError", err)
	}
	// InterJoin scans its views at Prepare: the fault surfaces there.
	if _, err := Prepare(d, q, tuples, EngineInterJoin, nil); !errors.As(err, &vf) {
		t.Errorf("InterJoin Prepare over the truncated file: error %v, want *ViewFaultError", err)
	}
}
