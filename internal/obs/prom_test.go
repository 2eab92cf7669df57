package obs

import (
	"math"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// promLineRe pins the Prometheus text exposition grammar this package
// emits: comment lines or `name{labels}? value` samples.
var promLineRe = regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+|[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? [0-9eE+.\-]+|[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="\+Inf"\})? [0-9eE+.\-]+)$`)

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("http.requests.total").Add(3)
	r.Gauge("sessions.active").Set(2)
	r.FloatGauge("runtime.gc_cpu_fraction").Set(0.25)
	h := r.Histogram("lp.solve_ms", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !promLineRe.MatchString(line) {
			t.Errorf("line %d violates the exposition format: %q", i+1, line)
		}
	}

	for _, want := range []string{
		"# HELP http_requests_total counter http.requests.total",
		"# TYPE http_requests_total counter",
		"http_requests_total 3",
		"# TYPE sessions_active gauge",
		"sessions_active 2",
		"# TYPE runtime_gc_cpu_fraction gauge",
		"runtime_gc_cpu_fraction 0.25",
		"# TYPE lp_solve_ms histogram",
		`lp_solve_ms_bucket{le="0.1"} 1`,
		`lp_solve_ms_bucket{le="1"} 3`,
		`lp_solve_ms_bucket{le="10"} 4`,
		`lp_solve_ms_bucket{le="+Inf"} 5`,
		"lp_solve_ms_sum 56.05",
		"lp_solve_ms_count 5",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output missing line %q\nfull output:\n%s", want, out)
		}
	}

	// Bucket counts must be cumulative and the +Inf bucket must equal _count.
	if strings.Count(out, "_bucket{") != 4 {
		t.Fatalf("want exactly 4 bucket lines, got:\n%s", out)
	}
}

func TestWritePromSortedAndSanitized(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last")
	r.Counter("a.first")
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		name := strings.Fields(line)[0]
		if strings.HasPrefix(line, "# ") {
			name = strings.Fields(line)[2]
		}
		if strings.Contains(name, ".") {
			t.Fatalf("metric name %q not sanitized:\n%s", name, out)
		}
	}
	if strings.Index(out, "a_first") > strings.Index(out, "z_last") {
		t.Fatalf("families must be sorted by name:\n%s", out)
	}
}

func TestMicroAndLatencyBuckets(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"LatencyBuckets": LatencyBuckets(),
		"MicroBuckets":   MicroBuckets(),
	} {
		if len(bounds) == 0 {
			t.Fatalf("%s is empty", name)
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				t.Fatalf("%s not strictly ascending at %d: %v", name, i, bounds)
			}
		}
	}
	if f := MicroBuckets()[0]; f != 0.001 {
		t.Fatalf("MicroBuckets floor = %gms, want 0.001 (1µs)", f)
	}
	if f := LatencyBuckets()[0]; f != 0.01 {
		t.Fatalf("LatencyBuckets floor = %gms, want 0.01 (10µs)", f)
	}
	if top := MicroBuckets()[len(MicroBuckets())-1]; top < 1000 {
		t.Fatalf("MicroBuckets top bound = %gms, want ≥1s so slow outliers stay bucketed", top)
	}
}

func TestCollectRuntime(t *testing.T) {
	r := NewRegistry()
	CollectRuntime(r)
	snap := r.Snapshot()
	for _, name := range []string{
		"runtime.goroutines", "runtime.heap_alloc_bytes", "runtime.heap_sys_bytes",
		"runtime.heap_objects", "runtime.stack_sys_bytes", "runtime.next_gc_bytes",
		"runtime.gc_runs",
	} {
		v, ok := snap[name].(int64)
		if !ok {
			t.Fatalf("%s missing from snapshot (%T)", name, snap[name])
		}
		if name != "runtime.gc_runs" && v <= 0 {
			t.Fatalf("%s = %d, want positive", name, v)
		}
	}
	if f, ok := snap["runtime.gc_cpu_fraction"].(float64); !ok || math.IsNaN(f) {
		t.Fatalf("runtime.gc_cpu_fraction = %v", snap["runtime.gc_cpu_fraction"])
	}
	// Pause quantiles appear only after at least one GC; force one and
	// re-collect so the branch is exercised deterministically.
	runtime.GC()
	CollectRuntime(r)
	snap = r.Snapshot()
	for _, name := range []string{"runtime.gc_pause_ms.p50", "runtime.gc_pause_ms.p99", "runtime.gc_pause_ms.max"} {
		if _, ok := snap[name].(float64); !ok {
			t.Fatalf("%s missing after forced GC (%T)", name, snap[name])
		}
	}
}
