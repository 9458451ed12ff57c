package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestSmoke runs every workload, untraced and traced, on windows short
// enough for tier-1: it asserts that the output checks pass and that every
// named metric is there and finite. It asserts no timing — what the host
// can do is the benchmark's business, not the test's.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real sockets for a few seconds")
	}
	const window = 400 * time.Millisecond
	for _, spec := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(spec, 7, window, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", spec.name, traced, err)
			}
			for _, f := range res.Failed {
				t.Errorf("%s traced=%v: check failed: %s", spec.name, traced, f)
			}
			if res.OpsAttempted == 0 {
				t.Errorf("%s traced=%v: no call attempted", spec.name, traced)
			}
			defs, got := endToEnd, res.EndToEnd
			if traced {
				defs, got = perLayer, res.PerLayer
			}
			if len(got) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", spec.name, traced, len(got), len(defs))
			}
			for _, d := range defs {
				p, ok := got[d.Name]
				if !ok || math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
					t.Errorf("%s traced=%v: metric %s missing or not finite (%v)", spec.name, traced, d.Name, p.Value)
				}
				if p.Unit != d.Unit {
					t.Errorf("%s: metric %s has unit %q, want %q", spec.name, d.Name, p.Unit, d.Unit)
				}
				if !traced && p.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", spec.name, d.Name)
				}
			}
		}
	}
}

// TestContractFile keeps BENCHMARK.json equal to the tables in metrics.go
// and workloads.go: the file is what the acceptance driver reads, the
// tables are what the program emits.
func TestContractFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q, program has %q (or their reasons differ)", i, file.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: file lists %d metrics, the program emits %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: file has %+v, program has %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound) {
				t.Errorf("%s %s: file and program disagree on the bound", kind, d.Name)
			}
			if !bounded && d.Moves == "" {
				t.Errorf("%s %s does not say which end-to-end metric it should move", kind, d.Name)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd, true)
	same("per_layer", file.PerLayer, perLayer, false)
}
