package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// manifest is BENCHMARK.json, as far as the benchmark has to agree with it.
type manifest struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var nameCharset = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload in the quick configuration, tracing off
// and on, and holds BENCHMARK.json and the program together: the workload
// and metric names and units the file declares are exactly those the
// program emits, for every workload.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
	}
	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, d := range m.EndToEnd {
		declared[false][d.Name] = d.Unit
	}
	for _, d := range m.PerLayer {
		declared[true][d.Name] = d.Unit
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(config{workload: w.name, seed: 1, trace: trace, quick: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(declared[trace]) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.name, trace, len(res.Metrics), len(declared[trace]))
			}
			for name, got := range res.Metrics {
				if unit, ok := declared[trace][name]; !ok || unit != got.Unit {
					t.Errorf("%s trace=%v: metric %s [%s] is not declared so in BENCHMARK.json", w.name, trace, name, got.Unit)
				}
				if !nameCharset.MatchString(name) {
					t.Errorf("metric name %q is outside the charset", name)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, got.Value)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%v: result does not encode: %v", w.name, trace, err)
			}
		}
	}
}

// TestSeed checks that the seed reaches the generators and that another
// seed's inputs still verify with no failed operation.
func TestSeed(t *testing.T) {
	for _, gen := range []func(seed int64) ([]byte, error){
		func(seed int64) ([]byte, error) { return xmarkXML(quickSizes.xmarkScale, seed) },
		func(seed int64) ([]byte, error) { return nasaXML(quickSizes.nasaDatasets, seed) },
	} {
		a, _ := gen(1)
		b, _ := gen(2)
		again, _ := gen(1)
		if len(a) == 0 || bytes.Equal(a, b) || !bytes.Equal(a, again) {
			t.Fatalf("seed does not determine the document: %d bytes for seed 1, %d for seed 2", len(a), len(b))
		}
	}
	// One workload per generator; update-mixed also seeds the update targets.
	for _, name := range []string{"nasa-selective", "update-mixed"} {
		res, err := run(config{workload: name, seed: 2, quick: true})
		if err != nil || !res.Correct || res.Failed != 0 {
			t.Errorf("%s seed 2: %v (%+v)", name, err, res)
		}
	}
}
