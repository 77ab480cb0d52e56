package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Every workload, both passes, at smoke size: the harness boots, drives,
// reopens and verifies, and the traced pass writes its trace.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, spec := range workloads {
		spec := spec.smoke()
		out := t.TempDir()
		for _, traced := range []bool{false, true} {
			runPass := timedPass
			if traced {
				runPass = tracedPass
			}
			pass, err := runPass(spec, 2014, 0, true, out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", spec.Name, traced, err)
			}
			if !pass.correct() {
				t.Fatalf("%s traced=%v: %d of %d operations failed: %v", spec.Name, traced, pass.failed, pass.attempted, pass.failure)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, def := range defs {
				if _, ok := pass.metrics[def.Name]; !ok {
					t.Errorf("%s traced=%v: metric %s not reported", spec.Name, traced, def.Name)
				}
			}
			if !traced {
				for _, def := range endToEnd {
					if pass.metrics[def.Name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want positive", spec.Name, def.Name, pass.metrics[def.Name])
					}
				}
			}
		}
		blob, err := os.ReadFile(filepath.Join(out, "trace-"+spec.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			Spans []struct {
				Layer string `json:"layer"`
			} `json:"spans"`
		}
		if err := json.Unmarshal(blob, &trace); err != nil || len(trace.Spans) == 0 {
			t.Errorf("%s: trace file has %d spans, err %v", spec.Name, len(trace.Spans), err)
		}
		left, _ := filepath.Glob(filepath.Join(out, "data-*"))
		if len(left) > 0 {
			t.Errorf("%s: data directories left behind: %v", spec.Name, left)
		}
	}
}

// BENCHMARK.json is what the driver reads; spec.go is what the program
// reports. They must name the same workloads and metrics.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var decl struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, spec.go %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.Name || decl.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go %q (%q)", i, decl.Workloads[i].Name, decl.Workloads[i].Why, w.Name, w.Why)
		}
	}
	same := func(kind string, declared []metric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, spec.go %d", kind, len(declared), len(defs))
		}
		for i, def := range defs {
			got := declared[i]
			if got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, spec.go %+v", kind, i, got, def)
			}
			if bounded && (got.Bound == nil || *got.Bound != def.Bound) {
				t.Errorf("%s metric %s: bound differs from spec.go's %v", kind, def.Name, def.Bound)
			}
			if !bounded && got.Bound != nil {
				t.Errorf("%s metric %s carries a bound", kind, def.Name)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd, true)
	same("per_layer", decl.PerLayer, perLayer, false)
}
