// Command e2ebench is the end-to-end serving benchmark of the isrl
// interactive-search service. Simulated users drive the journaled,
// replicated HTTP service through the public client SDK, and the benchmark
// reports what those users see (throughput, latency, questions asked, CPU,
// memory, set-up time) and, in a traced run, where each answer's time went
// layer by layer. It is its own Go module so the service's modules and
// tests stay untouched; run.sh builds it from the checkout.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload ea_car --seed 1 --seconds 10 --trace 0
//	bash e2ebench/run.sh --workload aa_player --trace 1     # per-layer metrics
//	bash e2ebench/run.sh --workload all                     # every workload, one process
//	bash e2ebench/run.sh --runs 5 --workload all            # 5 seeds each, medians and quartiles
//
// Every metric is printed as "workload metric value unit". The last line
// of standard output is one JSON object: whether every correctness check
// passed, how many operations and checks were attempted and failed, and
// the end-to-end metrics (the per-layer metrics with --trace 1). A failed
// check makes the command exit non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// e2eMetrics are the metrics an untraced run reports in its JSON line;
// BENCHMARK.json bounds each. Throughput, latency and CPU per answer are
// what a user of the service sees too, but a bound may be at most 0.25 and
// must hold the metric's spread over ten seeds (quartile distance over
// median). On the shared 2-vCPU host the baseline was recorded on, the
// host's own speed drifts between runs, and these metrics spread up to
// 0.30-0.40 on some workload in every set of ten. So they are per-layer
// metrics: every run prints them, and a traced run reports them from its
// untraced half. setup_s is held to its median only, not to a spread.
var e2eMetrics = []string{"rounds_per_session", "heap_mb", "setup_s"}

// layerMetrics are the per-layer metrics a traced run reports in its JSON
// line; BENCHMARK.json lists each with the end-to-end metric it should
// move. Only metrics that every workload exercises are listed: the others
// (GET latency, warm-LP and vertex-engine counters, retries, sheds, the
// par and lp self times AA's untraced solvers leave at 0) are printed but
// would read as constants on some workload.
var layerMetrics = []string{
	"answers_per_s", "answer_p50_ms", "answer_p99_ms", "create_p50_ms", "create_p95_ms", "cpu_ms_per_answer",
	"client.wire_ms_per_answer",
	"server.answer_p50_ms", "server.create_p50_ms", "server.self_ms_per_answer",
	"algo.load_ms", "algo.first_round_ms", "algo.round_p50_ms", "algo.round_p99_ms",
	"algo.busy_ms_per_answer", "oracle.wait_ms_per_answer",
	"lp.solves_per_answer", "par.tasks_per_answer",
	"wal.appends_per_answer", "wal.fsyncs_per_answer", "wal.fsync_ms_per_answer", "wal.fsync_p99_ms",
	"repl.records_per_batch", "repl.bytes_per_answer",
	"gc.cpu_fraction", "gc.runs_per_1k_answers",
	"self.client_ms_per_answer", "self.server_ms_per_answer", "self.algo_ms_per_answer",
	"self.rl_ms_per_answer", "self.wal_append_ms_per_answer", "self.wal_fsync_ms_per_answer",
	"gen.late_p99_ms", "trace.overhead_ratio", "trace.attributed_ratio",
}

func main() {
	var (
		name     = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "workload seed: simulated users, session seeds and open-loop draws")
		seconds  = flag.Float64("seconds", 10, "measured seconds per workload (a traced run measures two halves)")
		traced   = flag.Int("trace", 0, "1: report per-layer metrics from an untraced and a traced half")
		runs     = flag.Int("runs", 0, "run each workload this many times with seeds seed, seed+1, ... in rotating order and print medians and quartiles")
		out      = flag.String("out", "", "with -runs: write every run's metrics to this JSON file")
		stateDir = flag.String("state-dir", ".bench_build", "directory for the journals, spans and CPU profiles")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	todo := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fatalf("unknown workload %q", *name)
		}
		todo = []workload{w}
	}
	if *seconds <= 0 || *traced < 0 || *traced > 1 {
		fatalf("need -seconds > 0 and -trace 0 or 1")
	}
	if *runs > 0 {
		if err := runMany(ctx, todo, *seed, *seconds, *traced, *runs, *stateDir, *out); err != nil {
			fatalf("%v", err)
		}
		return
	}

	cfg := runConfig{
		Seed:     *seed,
		Window:   time.Duration(*seconds * float64(time.Second)),
		Trace:    *traced == 1,
		Setups:   3,
		StateDir: filepath.Join(*stateDir, "state"),
	}
	if cfg.Trace {
		cfg.TraceDir = filepath.Join(*stateDir, "trace")
	}
	want := e2eMetrics
	if cfg.Trace {
		want = layerMetrics
	}
	line := resultLine{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range todo {
		rep, err := runWorkload(ctx, w, cfg)
		if err != nil {
			fatalf("%s: %v", w.Name, err)
		}
		for _, m := range rep.Metrics {
			fmt.Printf("%s %s %s %s\n", w.Name, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		}
		for _, f := range rep.Failures {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: check failed: %s\n", w.Name, f)
		}
		line.add(rep, want, len(todo) > 1)
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(data))
	if !line.Correct {
		os.Exit(1)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// add folds one workload's report in. With several workloads the metric
// names carry the workload as a prefix. A missing or non-finite metric
// makes the run incorrect.
func (l *resultLine) add(rep *report, want []string, prefixed bool) {
	l.Attempted += rep.Attempted
	l.Failed += rep.Failed
	if rep.Failed > 0 || rep.Attempted == 0 {
		l.Correct = false
	}
	byName := make(map[string]metric, len(rep.Metrics))
	for _, m := range rep.Metrics {
		byName[m.Name] = m
	}
	for _, name := range want {
		m, ok := byName[name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: metric %s missing or not finite\n", rep.Workload, name)
			l.Correct = false
			continue
		}
		key := name
		if prefixed {
			key = rep.Workload + "/" + name
		}
		l.Metrics[key] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(1)
}
