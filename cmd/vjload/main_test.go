package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func readFile(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLoadInProcess is the acceptance smoke run: a short in-process load
// at modest QPS must complete requests and yield a well-formed load/v1
// manifest with non-zero latency quantiles.
func TestLoadInProcess(t *testing.T) {
	out := filepath.Join(t.TempDir(), "load.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-xmark", "0.02",
		"-qps", "200",
		"-duration", "500ms",
		"-mix", "//site//item[//description//keyword]/name; //site//item//name @ //site//item//name",
		"-json", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("vjload exit %d\nstderr: %s", code, stderr.String())
	}

	var m manifest
	data := readFile(t, out)
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest parse: %v\n%s", err, data)
	}
	if m.Schema != LoadSchema {
		t.Errorf("schema %q, want %q", m.Schema, LoadSchema)
	}
	if m.Sent == 0 {
		t.Fatal("no requests sent")
	}
	if m.Completed == 0 {
		t.Fatalf("no requests completed: %+v", m)
	}
	if m.Errors != 0 {
		t.Errorf("%d errors; both mix classes should prepare cleanly", m.Errors)
	}
	if m.Completed != m.LatencyUS.N {
		t.Errorf("completed %d but latency N %d", m.Completed, m.LatencyUS.N)
	}
	if m.LatencyUS.P50US <= 0 || m.LatencyUS.P95US < m.LatencyUS.P50US ||
		m.LatencyUS.P99US < m.LatencyUS.P95US || m.LatencyUS.P999US < m.LatencyUS.P99US {
		t.Errorf("quantiles implausible: %+v", m.LatencyUS)
	}
	if m.AchievedQPS <= 0 {
		t.Errorf("achieved QPS %f, want > 0", m.AchievedQPS)
	}
	if len(m.ByQuery) != 2 {
		t.Errorf("per-query summaries: %d classes, want 2", len(m.ByQuery))
	}
	var byN int64
	for q, s := range m.ByQuery {
		if s.N > 0 && s.P50US <= 0 {
			t.Errorf("class %q has N=%d but p50=0", q, s.N)
		}
		byN += s.N
	}
	if byN != m.LatencyUS.N {
		t.Errorf("per-class N sums to %d, overall N %d", byN, m.LatencyUS.N)
	}
	if m.Config.Target != "inprocess" {
		t.Errorf("config target %q, want inprocess", m.Config.Target)
	}
}

// TestLoadDeterministicArrivals pins that the seeded arrival process
// offers the same request count for the same seed: the open-loop schedule
// is a function of (seed, qps, duration), not of server speed.
func TestLoadSeededOffer(t *testing.T) {
	sent := func(seed string) int64 {
		out := filepath.Join(t.TempDir(), "load.json")
		var stdout, stderr bytes.Buffer
		code := run([]string{
			"-xmark", "0.01", "-qps", "300", "-duration", "300ms",
			"-seed", seed, "-json", out,
		}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("vjload exit %d\nstderr: %s", code, stderr.String())
		}
		var m manifest
		if err := json.Unmarshal(readFile(t, out), &m); err != nil {
			t.Fatal(err)
		}
		return m.Sent
	}
	a, b := sent("7"), sent("7")
	if a != b {
		t.Errorf("same seed offered %d vs %d requests", a, b)
	}
}

func TestParseMix(t *testing.T) {
	got := parseMix(" //a//b ;; //c @ //c//d , //e ")
	if len(got) != 2 {
		t.Fatalf("parseMix: %+v", got)
	}
	if got[0].query != "//a//b" || got[0].views != nil || got[0].spec != "//a//b" {
		t.Errorf("class 0: %+v", got[0])
	}
	if got[1].query != "//c" || len(got[1].views) != 2 ||
		got[1].views[0] != "//c//d" || got[1].views[1] != "//e" {
		t.Errorf("class 1: %+v", got[1])
	}
	if got[1].spec != "//c @ //c//d, //e" {
		t.Errorf("class 1 spec: %q", got[1].spec)
	}
	if parseMix(" ; ") != nil {
		t.Error("blank mix should parse empty")
	}
}

func TestParseMixTenantAndLimit(t *testing.T) {
	got := parseMix("//a//b @ //a, //b % t1 # 20; //c % t0; //d # 5")
	if len(got) != 3 {
		t.Fatalf("parseMix: %+v", got)
	}
	if got[0].query != "//a//b" || got[0].tenant != "t1" || got[0].limit != 20 ||
		len(got[0].views) != 2 || got[0].spec != "//a//b @ //a, //b % t1 # 20" {
		t.Errorf("class 0: %+v", got[0])
	}
	if got[1].query != "//c" || got[1].tenant != "t0" || got[1].limit != 0 || got[1].spec != "//c % t0" {
		t.Errorf("class 1: %+v", got[1])
	}
	if got[2].query != "//d" || got[2].tenant != "" || got[2].limit != 5 {
		t.Errorf("class 2: %+v", got[2])
	}
}

// TestLoadMultiTenantCapped drives the in-process server across three
// tenant registries: the multi-tenant smoke. Every completed request must
// come back clean; a pinned '%' class must stay valid. (The name predates
// the removal of the resident-bytes cap the run used to set.)
func TestLoadMultiTenantCapped(t *testing.T) {
	out := filepath.Join(t.TempDir(), "load.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-xmark", "0.02",
		"-qps", "200",
		"-duration", "500ms",
		"-tenants", "3",
		"-mix", "//site//item//name @ //site//item//name; //description//keyword @ //description//keyword % t1",
		"-json", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("vjload exit %d\nstderr: %s", code, stderr.String())
	}
	var m manifest
	if err := json.Unmarshal(readFile(t, out), &m); err != nil {
		t.Fatal(err)
	}
	if m.Completed == 0 {
		t.Fatalf("no requests completed: %+v", m)
	}
	if m.Errors != 0 {
		t.Errorf("%d errors; all tenants should serve cleanly", m.Errors)
	}
	if m.Config.Tenants != 3 {
		t.Errorf("config tenancy not recorded: %+v", m.Config)
	}
}

func TestBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-qps", "0"}, &stdout, &stderr); code != 1 {
		t.Errorf("zero qps exit %d, want 1", code)
	}
	if code := run([]string{"-mix", " ; "}, &stdout, &stderr); code != 1 {
		t.Errorf("empty mix exit %d, want 1", code)
	}
}
