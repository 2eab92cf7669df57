package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBaseline(t *testing.T, rep hotpathsReport) string {
	t.Helper()
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The allocation floors gate on every host; only the hardware-dependent
// speedup checks skip when the baseline came from different hardware.
func TestCompareReportsAllocGateIgnoresHost(t *testing.T) {
	base := hotpathsReport{
		GOOS: "linux", GOARCH: "amd64", NumCPU: 1, GOMAXPROCS: 1,
		Benchmarks: []benchRow{{Name: "vertices_d4", AllocsPerOp: 64}},
		Speedups:   []speedupRow{{Name: "round_geometry_d4", Speedup: 6}},
	}
	path := writeBaseline(t, base)
	other := hotpathsReport{
		GOOS: "linux", GOARCH: "amd64", NumCPU: 2, GOMAXPROCS: 2,
		Benchmarks: []benchRow{{Name: "vertices_d4", AllocsPerOp: 82}},
		Speedups:   []speedupRow{{Name: "round_geometry_d4", Speedup: 0.5}},
	}
	if err := compareReports(path, other); err != nil {
		t.Fatalf("within the alloc limit on another host: %v", err)
	}
	other.Benchmarks[0].AllocsPerOp = 83 // limit is 64·1.25 + 2 = 82
	err := compareReports(path, other)
	if err == nil || !strings.Contains(err.Error(), "vertices_d4") {
		t.Fatalf("alloc regression on another host not caught: %v", err)
	}
	if strings.Contains(err.Error(), "speedup") {
		t.Fatalf("speedup gated across hosts: %v", err)
	}

	same := other
	same.NumCPU, same.GOMAXPROCS = 1, 1
	same.Benchmarks = []benchRow{{Name: "vertices_d4", AllocsPerOp: 64}}
	if err := compareReports(path, same); err == nil || !strings.Contains(err.Error(), "round_geometry_d4") {
		t.Fatalf("speedup flip on the same host not caught: %v", err)
	}
}
