package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"viewjoin"
)

func TestParseScheme(t *testing.T) {
	cases := map[string]viewjoin.StorageScheme{
		"E": viewjoin.SchemeElement, "e": viewjoin.SchemeElement,
		"LE": viewjoin.SchemeLE, "le": viewjoin.SchemeLE,
		"LEp": viewjoin.SchemeLEp, "LEP": viewjoin.SchemeLEp,
		"T": viewjoin.SchemeTuple, "t": viewjoin.SchemeTuple,
	}
	for in, want := range cases {
		got, err := parseScheme(in)
		if err != nil || got != want {
			t.Errorf("parseScheme(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseScheme("zz"); err == nil {
		t.Errorf("unknown scheme: expected error")
	}
}

func TestParseEngine(t *testing.T) {
	cases := map[string]viewjoin.Engine{
		"VJ": viewjoin.EngineViewJoin, "vj": viewjoin.EngineViewJoin,
		"TS": viewjoin.EngineTwigStack, "PS": viewjoin.EnginePathStack,
		"IJ": viewjoin.EngineInterJoin,
	}
	for in, want := range cases {
		got, err := parseEngine(in)
		if err != nil || got != want {
			t.Errorf("parseEngine(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseEngine("zz"); err == nil {
		t.Errorf("unknown engine: expected error")
	}
}

func TestLoadDocument(t *testing.T) {
	if d, err := loadDocument(0.01, 0, ""); err != nil || d.NumNodes() == 0 {
		t.Errorf("xmark: %v", err)
	}
	if d, err := loadDocument(0, 10, ""); err != nil || d.NumNodes() == 0 {
		t.Errorf("nasa: %v", err)
	}
	if _, err := loadDocument(0, 0, ""); err == nil {
		t.Errorf("no source: expected error")
	}
	if _, err := loadDocument(0, 0, "/nonexistent.xml"); err == nil {
		t.Errorf("missing file: expected error")
	}

	path := filepath.Join(t.TempDir(), "doc.xml")
	if err := os.WriteFile(path, []byte("<a><b/></a>"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := loadDocument(0, 0, path)
	if err != nil || d.NumNodes() != 2 {
		t.Errorf("file: %v, %d nodes", err, d.NumNodes())
	}
}

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
	if rep["schema"] != "viewjoin/trace/v1" {
		t.Errorf("schema = %v", rep["schema"])
	}
	for _, key := range []string{"plan", "phases", "nodes", "events", "counters"} {
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
