// Command vjbench regenerates the experimental evaluation of the ViewJoin
// paper (Chen & Chan, ICDE 2010): every table and figure of §VI, over the
// deterministic XMark-like and Nasa-like datasets and the simulated paged
// store.
//
// Usage:
//
//	vjbench -exp all                 # run the whole evaluation
//	vjbench -exp fig5a               # one experiment (see -list)
//	vjbench -exp fig7 -xmark-scale 2 # bigger documents
//	vjbench -list                    # list experiment names
//
// Profiling:
//
//	vjbench -cpuprofile cpu.pprof    # CPU profile of the run
//	vjbench -memprofile mem.pprof    # heap profile at exit
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"viewjoin/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run (see -list), or 'all'")
		list     = flag.Bool("list", false, "list experiments and exit")
		scale    = flag.Float64("xmark-scale", 0, "XMark scale factor (default 1.0 = 100MB analog)")
		datasets = flag.Int("nasa-datasets", 0, "Nasa dataset count (default 4000 = 23MB analog)")
		repeats  = flag.Int("repeats", 0, "timed samples per cell, after one warm-up (default 21)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.Name, e.Title)
		}
		return
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vjbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "vjbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	cfg := experiments.Config{
		XMarkScale:   *scale,
		NasaDatasets: *datasets,
		Repeats:      *repeats,
		Out:          os.Stdout,
	}

	// fail finishes profiles before exiting so a crashed run still leaves
	// usable CPU/heap data.
	fail := func(code int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, format, args...)
		if *cpuProf != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(code)
	}

	run := func(e experiments.Experiment) {
		fmt.Printf("=== %s: %s\n", e.Name, e.Title)
		start := time.Now()
		if err := e.Run(cfg); err != nil {
			fail(1, "vjbench: %s: %v\n", e.Name, err)
		}
		fmt.Printf("=== %s done in %v\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range experiments.All() {
			run(e)
		}
	} else {
		e, err := experiments.ByName(*exp)
		if err != nil {
			fail(2, "vjbench: %v\n", err)
		}
		run(e)
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fail(1, "vjbench: %v\n", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(1, "vjbench: %v\n", err)
		}
		f.Close()
	}
}
