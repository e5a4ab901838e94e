package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func writeDoc(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "doc.xml")
	doc := `<r><a><b><c/><e/></b><e/></a><a><f/><b><c/><c/><e/></b><e/></a></r>`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSuccess(t *testing.T) {
	path := writeDoc(t)
	code, out, errOut := runCLI(t, "-q", "//a[//f]//b//e", "-views", "//a//e; //b; //f", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "matches in") || !strings.Contains(out, "stats:") {
		t.Errorf("missing result output:\n%s", out)
	}
}

func TestRunJSONReport(t *testing.T) {
	path := writeDoc(t)
	code, out, errOut := runCLI(t,
		"-q", "//a[//f]//b//e", "-views", "//a//e; //b; //f", "-explain", "-json", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	// stdout must be exactly one JSON document.
	var rep map[string]any
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("stdout is not one JSON document: %v\n%s", err, out)
	}
	if rep["schema"] != "viewjoin/trace/v2" {
		t.Errorf("schema = %v", rep["schema"])
	}
	for _, key := range []string{"plan", "phases", "counters"} {
		if _, ok := rep[key]; !ok {
			t.Errorf("JSON report missing %q", key)
		}
	}
	// The human EXPLAIN moved to stderr.
	if !strings.Contains(errOut, "via VJ") || !strings.Contains(errOut, "segment") {
		t.Errorf("explain text missing from stderr:\n%s", errOut)
	}
}

func TestRunExplainOnly(t *testing.T) {
	path := writeDoc(t)
	code, out, errOut := runCLI(t,
		"-q", "//a[//f]//b//e", "-views", "//a//e; //b; //f", "-explain", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"via VJ", "segment", "counters:", "phase"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(errOut, "via VJ") {
		t.Errorf("explain leaked to stderr without -json")
	}
}

func TestRunParseFailureExitCode(t *testing.T) {
	path := writeDoc(t)
	code, _, errOut := runCLI(t, "-q", "//a[[", path)
	if code != exitParse {
		t.Fatalf("exit %d, want %d; stderr: %s", code, exitParse, errOut)
	}
	var e struct{ Stage, Error string }
	if err := json.Unmarshal([]byte(strings.TrimSpace(errOut)), &e); err != nil {
		t.Fatalf("stderr is not one JSON line: %v\n%s", err, errOut)
	}
	if e.Stage != "parse" || e.Error == "" {
		t.Errorf("structured error = %+v", e)
	}
}

func TestRunEvaluateFailureExitCode(t *testing.T) {
	path := writeDoc(t)
	// InterJoin over a branching query: evaluation (not parsing) fails.
	code, _, errOut := runCLI(t,
		"-q", "//a[//f]//b//e", "-views", "//a//e; //b; //f", "-engine", "IJ", "-scheme", "T", path)
	if code != exitEvaluate {
		t.Fatalf("exit %d, want %d; stderr: %s", code, exitEvaluate, errOut)
	}
	var e struct{ Stage, Error string }
	if err := json.Unmarshal([]byte(strings.TrimSpace(errOut)), &e); err != nil {
		t.Fatalf("stderr is not one JSON line: %v\n%s", err, errOut)
	}
	if e.Stage != "evaluate" {
		t.Errorf("stage = %q, want evaluate", e.Stage)
	}
}

func TestRunOtherFailureExitCode(t *testing.T) {
	if code, _, _ := runCLI(t, "-q", "//a//b"); code != exitOther {
		t.Errorf("no document: exit %d, want %d", code, exitOther)
	}
	if code, _, _ := runCLI(t); code != exitOther {
		t.Errorf("no query: exit %d, want %d", code, exitOther)
	}
	path := writeDoc(t)
	if code, _, _ := runCLI(t, "-q", "//a//b", "-views", "//a", path); code != exitOther {
		t.Errorf("invalid view set: exit %d, want %d", code, exitOther)
	}
}

func TestRunNZeroSuppressesMatchOutput(t *testing.T) {
	path := writeDoc(t)
	code, out, errOut := runCLI(t, "-q", "//a//e", "-views", "//a//e", "-n", "0", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if strings.Contains(out, "matches in") || strings.Contains(out, "@") {
		t.Errorf("-n 0 must suppress the match header and rows:\n%s", out)
	}
	if !strings.Contains(out, "stats:") {
		t.Errorf("-n 0 must keep the stats line:\n%s", out)
	}
}

// TestRunOffsetPrintsThePage: -n 2 -offset 3 prints rows 3 and 4 of the
// -n 5 run, under a header counting the page's two.
func TestRunOffsetPrintsThePage(t *testing.T) {
	rows := func(out string) []string {
		var r []string
		for _, l := range strings.Split(out, "\n") {
			if strings.Contains(l, "@") {
				r = append(r, l)
			}
		}
		return r
	}
	code, out, errOut := runCLI(t, "-q", "//site//item//name", "-xmark", "0.02", "-n", "5")
	if code != 0 {
		t.Fatalf("-n 5: exit %d, stderr: %s", code, errOut)
	}
	first := rows(out)
	if len(first) != 5 {
		t.Fatalf("-n 5 printed %d rows:\n%s", len(first), out)
	}
	code, out, errOut = runCLI(t, "-q", "//site//item//name", "-xmark", "0.02", "-n", "2", "-offset", "3")
	if code != 0 {
		t.Fatalf("-n 2 -offset 3: exit %d, stderr: %s", code, errOut)
	}
	if page := rows(out); strings.Join(page, "\n") != strings.Join(first[3:], "\n") || !strings.Contains(out, ": 2 matches in") {
		t.Errorf("-n 2 -offset 3 printed\n%s\nwant rows 3 and 4 of -n 5:\n%s", out, strings.Join(first[3:], "\n"))
	}
}

// TestParallelFlagIsUnknown: a run is one job, so there is no -parallel;
// naming it fails before anything loads.
func TestParallelFlagIsUnknown(t *testing.T) {
	code, out, errOut := runCLI(t, "-q", "//a//b", "-parallel", "2", writeDoc(t))
	if code != exitOther || out != "" || !strings.Contains(errOut, "flag provided but not defined: -parallel") {
		t.Errorf("-parallel 2: exit %d, stdout %q, stderr %q; want %d and the unknown-flag error", code, out, errOut, exitOther)
	}
}
