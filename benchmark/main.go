// Command benchmark is this repository's performance benchmark: the only
// source of performance numbers for it. One invocation sets one workload
// up from a seed, checks that the program's outputs are correct, measures
// closed-loop rounds for a given time, and prints every metric by name
// with its unit. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	traceOut string

	sizes   sizes
	clients int // client goroutines of the two-client serving workloads
	setups  int // set-ups timed for setup_s
	rounds  int // least number of measured rounds
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	trace := 0
	flag.StringVar(&cfg.workload, "workload", "", "workload to run; empty runs all, untraced then traced")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated documents and updates")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke configuration: small documents, one round")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "file the traced pass writes its spans to")
	flag.Parse()
	cfg.trace = trace != 0

	fmt.Printf("env: nproc=%d GOMAXPROCS=%d go=%s head=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), headSHA())
	names := []string{cfg.workload}
	traces := []bool{cfg.trace}
	if cfg.workload == "" {
		names, traces = nil, []bool{false, true}
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	code := 0
	for _, name := range names {
		for _, tr := range traces {
			c := cfg
			c.workload, c.trace = name, tr
			res, err := run(c)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				code = 1
			}
			if res != nil {
				printResult(name, res)
			}
		}
	}
	os.Exit(code)
}

// headSHA names the commit measured, with a dirty flag, when the run
// happens inside a git work tree; "unknown" otherwise.
func headSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		sha += "-dirty"
	}
	return sha
}

// run performs one workload's run. A nil result means the run could not
// start; a verify failure still reports, with correct=false, and returns
// the error so that the process exits non-zero.
func run(cfg config) (*result, error) {
	def := findWorkload(cfg.workload)
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	cfg.sizes, cfg.setups, cfg.rounds = fullSizes, 5, 3
	if cfg.quick {
		cfg.sizes, cfg.setups, cfg.rounds = quickSizes, 1, 1
	}
	if cfg.trace {
		cfg.setups = 1
	}
	cfg.clients = min(2, runtime.NumCPU())

	// Set up several times and report the median; measure on the last.
	var in *instance
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if in != nil {
			in.close()
		}
		runtime.GC()
		t := time.Now()
		in = &instance{def: def}
		if err := def.setup(cfg, in); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	defer in.close()

	res := &result{Correct: true, Metrics: make(map[string]metric)}
	err := verifyOracle(cfg, in)
	if err == nil {
		err = verifyFull(in)
	}
	if err != nil {
		res.Correct = false
		return res, err
	}

	if cfg.trace {
		err = tracedPass(cfg, in, res)
	} else {
		res.Metrics["setup_s"] = overRounds("s", setupS, median)
		measure(cfg, in, res)
	}
	if err == nil && in.upd != nil {
		err = verifyUpdated(in)
	}
	if err == nil && res.Failed > 0 {
		err = fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	res.Correct = err == nil
	return res, err
}

// measure runs untraced rounds for cfg.seconds and fills the end-to-end
// metrics, each computed per round. A timing is reported from the best
// round: on a shared machine a disturbance only ever slows a round down,
// and over ten runs of unchanged code the best round repeated within 4%
// where the median round moved by 10% (README.md). A round holds several
// collector cycles, so the best round still pays for its garbage. Counts
// of allocations have no such one-sided noise and report the median.
func measure(cfg config, in *instance, res *result) {
	per := make(map[string][]float64)
	var heapLive, storeBytes float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for n := 0; n < cfg.rounds || time.Now().Before(deadline); n++ {
		r := runRound(in, nil)
		res.Attempted += r.ops
		res.Failed += r.failed
		ops := float64(r.ops)
		q := r.latencies(isQuery)
		per["ops_per_s"] = append(per["ops_per_s"], ops/r.wall.Seconds())
		per["query_p50_ms"] = append(per["query_p50_ms"], ms(percentile(q, 0.50)))
		per["query_p90_ms"] = append(per["query_p90_ms"], ms(percentile(q, 0.90)))
		per["cpu_ms_per_op"] = append(per["cpu_ms_per_op"], ms(r.cpu)/ops)
		per["allocs_per_op"] = append(per["allocs_per_op"], float64(r.mem1.Mallocs-r.mem0.Mallocs)/ops)
		per["alloc_kb_per_op"] = append(per["alloc_kb_per_op"], float64(r.mem1.TotalAlloc-r.mem0.TotalAlloc)/1024/ops)
		if n == 0 {
			// Space is read after the first round, a fixed amount of work
			// into the run, so that it does not depend on how many rounds
			// the machine fits into the measured time.
			heapLive, storeBytes = liveHeap(), 0
			for _, mv := range in.views {
				storeBytes += float64(mv.FootprintBytes())
			}
		}
	}
	for _, m := range endToEnd {
		switch m.name {
		case "setup_s":
		case "heap_live_mb":
			res.Metrics[m.name] = metric{Value: heapLive / mib, Unit: m.unit, n: 1}
		case "view_store_mb":
			res.Metrics[m.name] = metric{Value: storeBytes / mib, Unit: m.unit, n: 1}
		case "ops_per_s":
			res.Metrics[m.name] = overRounds(m.unit, per[m.name], slices.Max)
		case "allocs_per_op", "alloc_kb_per_op":
			res.Metrics[m.name] = overRounds(m.unit, per[m.name], median)
		default:
			res.Metrics[m.name] = overRounds(m.unit, per[m.name], slices.Min)
		}
	}
}

// liveHeap is the heap in use after forced collections: document, views
// and plans, plus delta chains on update-mixed. The second collection
// empties the sync.Pool victim caches, whose content depends on timing.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// printResult prints every metric by name with its unit, then the result
// object as the last line.
func printResult(workload string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-16s %-40s %14.6g %-6s", workload, name, m.Value, m.Unit)
		if m.n > 1 {
			fmt.Printf(" (median %.6g, iqr %.4g, %d rounds)", m.median, m.iqr, m.n)
		}
		fmt.Println()
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
