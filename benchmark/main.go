// Command benchmark is the repository's end-to-end benchmark: five
// offload workloads drive the real rpc client → wire session →
// ListenMuxShards → overload.Gate → handler path — on loopback sockets
// and on marsim virtual time — and report the 75 ms call as calls/s,
// latency percentiles, deadline hit ratio and cost per call, with a
// per-layer ledger from a separate traced run. See README.md.
//
//	benchmark -workload W -seed S -seconds N -trace 0|1   one run (the BENCHMARK.json contract)
//	benchmark [-seed S] [-seconds N]                      every workload, untraced then traced
//	benchmark -compare OLD NEW                            verdict per (metric, workload)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// document is what one invocation prints: where and how the numbers were
// produced, then the numbers per workload.
type document struct {
	Provenance provenance                 `json:"provenance"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

// workloadResult holds one workload's metrics; a single run fills either
// EndToEnd (untraced) or PerLayer (traced), the suite both.
type workloadResult struct {
	Transport    string           `json:"transport"`
	EndToEnd     map[string]point `json:"end_to_end,omitempty"`
	PerLayer     map[string]point `json:"per_layer,omitempty"`
	OpsAttempted int              `json:"ops_attempted"`
	OpsFailed    int              `json:"ops_failed"`
	// CPUUsPerCall is the untraced window's process CPU time per OK call.
	// It is printed, not gated: on a shared host it follows the neighbours
	// (see README.md), and runtime.cpu_us_per_call carries it per layer.
	CPUUsPerCall float64 `json:"cpu_us_per_call,omitempty"`
	// Percentiles says, for each latency percentile reported, which
	// percentile was actually supported and by how many samples.
	Percentiles map[string]tail `json:"percentiles,omitempty"`
	// An untraced run measures Windows windows of WindowS seconds, each on
	// a rig of its own, and reports every metric's median over them.
	WindowS       float64 `json:"window_s,omitempty"`
	Windows       int     `json:"windows,omitempty"`
	TracedWindowS float64 `json:"traced_window_s,omitempty"`
	WarmupS       float64 `json:"warmup_s"`
	// HostStealPct is the share of the guest's CPU time the hypervisor took
	// during the window (/proc/stat): why two runs of one commit differ.
	HostStealPct float64 `json:"host_steal_pct"`
	// GrantedCPUShare is 1 − that share; the CPU-limited wall-clock
	// throughputs (calls_per_s everywhere, sim_speedup of the simulations)
	// are divided by it, so there value × granted_cpu_share is the raw
	// wall-clock reading.
	GrantedCPUShare float64 `json:"granted_cpu_share"`
	// Health lists baseline expectations the run missed (hit ratios a
	// healthy stack reaches); they flag the harness, they do not fail it.
	Health []string `json:"health,omitempty"`
	// Failed lists the output checks that failed; any entry fails the run.
	Failed []string `json:"failed_checks,omitempty"`

	whyFailed map[string]int // failed calls by cause
}

type point struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of a single run's output, in the shape
// BENCHMARK.json's driver reads.
type contractLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]point `json:"metrics"`
}

func points(defs []metricDef, vs values) map[string]point {
	out := make(map[string]point, len(defs))
	for _, d := range defs {
		out[d.Name] = point{Value: vs[d.Name], Unit: d.Unit}
	}
	return out
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all five, untraced then traced)")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", 18, "length of the measurement window")
		trace    = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics, tracing on")
		compare  = flag.Bool("compare", false, "compare result documents: -compare OLD NEW, each a comma-separated list of files or globs")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare OLD NEW")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || math.IsNaN(*seconds) || *seconds > 60 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be in (0, 60]")
		os.Exit(2)
	}
	window := time.Duration(*seconds * float64(time.Second))
	doc := &document{Provenance: newProvenance(*seed), Workloads: map[string]*workloadResult{}}
	enc := json.NewEncoder(os.Stdout)

	if *workload != "" {
		spec := findWorkload(*workload)
		if spec == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		res, err := runWorkload(spec, *seed, window, *trace != 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		doc.Workloads[spec.name] = res
		enc.Encode(doc) //nolint:errcheck // stdout
		line := contractLine{Correct: len(res.Failed) == 0, Attempted: res.OpsAttempted, Failed: res.OpsFailed,
			Metrics: res.EndToEnd}
		if *trace != 0 {
			line.Metrics = res.PerLayer
		}
		enc.Encode(line) //nolint:errcheck // stdout
		if !line.Correct {
			for _, f := range res.Failed {
				fmt.Fprintf(os.Stderr, "benchmark: %s: check failed: %s\n", spec.name, f)
			}
			os.Exit(1)
		}
		return
	}

	// The suite: every workload untraced, then traced for a third as long.
	ok := true
	for _, spec := range workloads {
		res, err := runWorkload(spec, *seed, window, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		traced, err := runWorkload(spec, *seed, window/3, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		res.PerLayer, res.TracedWindowS = traced.PerLayer, traced.TracedWindowS
		res.Failed = append(res.Failed, traced.Failed...)
		doc.Workloads[spec.name] = res
		for _, f := range res.Failed {
			ok = false
			fmt.Fprintf(os.Stderr, "benchmark: %s: check failed: %s\n", spec.name, f)
		}
	}
	enc.SetIndent("", "  ")
	enc.Encode(doc) //nolint:errcheck // stdout
	if !ok {
		os.Exit(1)
	}
}
