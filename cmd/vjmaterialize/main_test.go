package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const (
	testViews = "//site//item//name; //description//keyword"
	testQuery = "//site//item[//description//keyword]/name"
)

// TestLoadedViewsAnswerLikeFresh materializes two views of XMark 0.02 into
// a directory, then runs vjquery over the same document twice: with -load
// over those files and with -views, materializing afresh. Both must print
// the same match count.
func TestLoadedViewsAnswerLikeFresh(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-xmark", "0.02", "-views", testViews, "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if lines := strings.Count(stdout.String(), "\n"); lines != 2 {
		t.Fatalf("%d lines for 2 views:\n%s", lines, stdout.String())
	}

	go_, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build vjquery with")
	}
	vjquery := filepath.Join(t.TempDir(), "vjquery")
	if out, err := exec.Command(go_, "build", "-o", vjquery, "viewjoin/cmd/vjquery").CombinedOutput(); err != nil {
		t.Fatalf("build vjquery: %v\n%s", err, out)
	}
	matches := regexp.MustCompile(`: (\d+) matches in `)
	count := func(args ...string) string {
		t.Helper()
		args = append([]string{"-q", testQuery, "-xmark", "0.02", "-n", "1000000"}, args...)
		out, err := exec.Command(vjquery, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("vjquery %v: %v\n%s", args, err, out)
		}
		m := matches.FindSubmatch(out)
		if m == nil {
			t.Fatalf("vjquery %v printed no match count:\n%s", args, out)
		}
		return string(m[1])
	}
	loaded, fresh := count("-load", filepath.Join(dir, "*.vjview")), count("-views", testViews)
	if loaded != fresh || loaded == "0" {
		t.Errorf("-load counts %s matches, fresh -views %s", loaded, fresh)
	}
}

// TestRunFailures: each failure exits 1 with one JSON line naming its
// stage.
func TestRunFailures(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		stage string
		args  []string
	}{
		{"usage", []string{"-xmark", "0.01"}},
		{"load", []string{"-views", "//a"}},
		{"parse", []string{"-xmark", "0.01", "-views", "//a", "-scheme", "X"}},
		{"parse", []string{"-xmark", "0.01", "-views", "//a["}},
		{"save", []string{"-xmark", "0.01", "-views", "//item", "-out", filepath.Join(file, "views")}},
	} {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		var got struct{ Stage string }
		if err := json.Unmarshal(stderr.Bytes(), &got); code != exitFailure || err != nil || got.Stage != c.stage {
			t.Errorf("%v: exit %d, stderr %q; want exit %d at stage %q", c.args, code, stderr.String(), exitFailure, c.stage)
		}
	}
	if code := run([]string{"-nosuchflag"}, new(bytes.Buffer), new(bytes.Buffer)); code != exitFailure {
		t.Errorf("unknown flag: exit %d, want %d", code, exitFailure)
	}
}
