package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the harness must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func names(xs []struct{ Name string }) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = x.Name
	}
	return out
}

// TestSmoke runs every workload for a few untrained sessions, untraced and
// traced, and checks that each run passes its correctness checks and
// emits every metric BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var wnames []string
	for _, w := range workloads {
		wnames = append(wnames, w.Name)
	}
	if got := names(spec.Workloads); !slices.Equal(got, wnames) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", got, wnames)
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, e2eMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, harness %v", got, e2eMetrics)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, layerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, harness %v", got, layerMetrics)
	}

	for _, w := range workloads {
		w.Episodes = 0
		w.Warmup = 100 * time.Millisecond
		w.Sessions = 3
		if w.Rate > 0 {
			w.Rate, w.Think = 100, 10*time.Millisecond
		}
		for _, traced := range []bool{false, true} {
			cfg := runConfig{
				Seed:     7,
				Window:   400 * time.Millisecond,
				Trace:    traced,
				Setups:   1,
				StateDir: t.TempDir(),
			}
			rep, err := runWorkload(context.Background(), w, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if rep.Failed > 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations and checks failed: %v", w.Name, traced, rep.Failed, rep.Attempted, rep.Failures)
			}
			want := e2eMetrics
			if traced {
				want = layerMetrics
			}
			got := map[string]float64{}
			for _, m := range rep.Metrics {
				got[m.Name] = m.Value
			}
			for _, name := range want {
				v, ok := got[name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: metric %s = %v, present %v", w.Name, traced, name, v, ok)
				}
			}
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(n=4), which the benchmark's spreads are judged by.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
