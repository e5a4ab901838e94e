package experiments

import (
	"os"
	"testing"
)

// TestRunAllExperiments executes every experiment end to end; opt-in via
// VIEWJOIN_RUN_ALL=1 (the full sweep takes about 15 s at default scale).
func TestRunAllExperiments(t *testing.T) {
	if os.Getenv("VIEWJOIN_RUN_ALL") == "" {
		t.Skip("set VIEWJOIN_RUN_ALL=1 to run the full experiment sweep")
	}
	cfg := Config{Out: os.Stdout}
	for _, e := range All() {
		t.Run(e.Name, func(t *testing.T) {
			if err := e.Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestExperimentsSmall runs every experiment at a reduced scale as a smoke
// test, ensuring each completes and its engines agree on match counts.
func TestExperimentsSmall(t *testing.T) {
	cfg := Config{XMarkScale: 0.05, NasaDatasets: 200, Repeats: 1}
	for _, e := range All() {
		t.Run(e.Name, func(t *testing.T) {
			if err := e.Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("fig5a"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
	if len(All()) != 13 {
		t.Fatalf("experiments = %d, want 13", len(All()))
	}
}
