package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"isrl/internal/obs"
)

// runConfig is one invocation's settings.
type runConfig struct {
	Seed     int64
	Window   time.Duration // measured time; a traced run splits it in two halves
	Trace    bool
	Setups   int // stacks built to time set-up; the last one serves the load
	StateDir string
	TraceDir string
}

// report is one workload's result.
type report struct {
	Workload          string
	Metrics           []metric
	Attempted, Failed int64
	Failures          []string
}

func (r *report) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit})
}

func (r *report) absorb(rec *recorder) {
	r.Attempted += rec.attempted
	r.Failed += rec.failed
	r.Failures = append(r.Failures, rec.failures...)
}

// newHTTPClient is the one transport every client of a run shares, capped
// at closedClients connections like the load itself.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     closedClients,
		MaxIdleConnsPerHost: closedClients,
		IdleConnTimeout:     30 * time.Second,
	}}
}

// phase is one load phase's measurements.
type phase struct {
	rec    *recorder
	length time.Duration
	d      delta     // registry, CPU and GC over the measured window
	heap   []float64 // live heap in MiB, read five times a second in the window
	lagMax int64
	out    *outcomes
}

func (p *phase) answers() float64 { return float64(len(p.rec.lat[opAnswer])) }

// runPhase offers the workload's load to st: a warm-up, then a window of
// the given length during which samples, registry deltas and CPU time
// are taken, then whatever it takes for sessions s1..sN to end.
func runPhase(ctx context.Context, st *stack, w workload, cfg runConfig, length time.Duration) *phase {
	start := time.Now()
	win := window{start: start.Add(w.Warmup), end: start.Add(w.Warmup + length)}
	l := &loadRun{st: st, w: w, seed: cfg.Seed, win: win, out: newOutcomes()}
	p := &phase{length: length, out: l.out}

	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		if !sleepUntil(ctx, win.start) {
			return
		}
		p.d.a = takeSample()
		end := time.NewTimer(time.Until(win.end))
		defer end.Stop()
		lag := time.NewTicker(100 * time.Millisecond)
		defer lag.Stop()
		heap := time.NewTicker(200 * time.Millisecond)
		defer heap.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-lag.C:
				if n, _ := st.primary.Lag(); n > p.lagMax {
					p.lagMax = n
				}
			case <-heap.C:
				p.heap = append(p.heap, liveHeapMiB())
			case <-end.C:
				p.d.b = takeSample()
				p.heap = append(p.heap, liveHeapMiB())
				return
			}
		}
	}()
	if w.Rate > 0 {
		p.rec = l.openLoop(ctx)
	} else {
		p.rec = l.closedLoop(ctx)
	}
	<-sampled
	return p
}

func sleepUntil(ctx context.Context, t time.Time) bool {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}

// finishStack runs the checks that need the load stopped: the follower
// catches up, serving stops, both journals are audited, the stack is torn
// down and every finished session is verified.
func finishStack(ctx context.Context, st *stack, w workload, p *phase) {
	err := st.waitCaughtUp(ctx)
	p.rec.check(err == nil, "replication: %v", err)
	st.stopServing()
	auditJournals(p.rec, st)
	st.close()
	checkOutcomes(p.rec, st, w, p.out)
}

// runWorkload measures one workload. Untraced, it sets up three times and
// reports the end-to-end metrics; traced, it runs an untraced and a traced
// half and reports the per-layer metrics. Both print everything they
// measure.
func runWorkload(ctx context.Context, w workload, cfg runConfig) (*report, error) {
	rep := &report{Workload: w.Name}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	if cfg.Trace {
		return rep, runTraced(ctx, w, cfg, hc, rep)
	}

	var st *stack
	var setups []float64
	for i := 0; i < cfg.Setups; i++ {
		if st != nil {
			st.close()
		}
		s, d, err := buildStack(ctx, w, cfg, hc, false)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		st = s
		setups = append(setups, d.Seconds())
	}
	defer st.close()
	p := runPhase(ctx, st, w, cfg, cfg.Window)
	finishStack(ctx, st, w, p)
	rep.absorb(p.rec)

	rep.Metrics = append(rep.Metrics, serviceMetrics(p, w)...)
	rep.add("setup_s", median(setups), "s")
	rep.add("failed_ratio", ratio(float64(rep.Failed), float64(rep.Attempted)), "ratio")
	rep.Metrics = append(rep.Metrics, registryLayers(p)...)
	return rep, nil
}

// serviceMetrics are what the users of the service saw during the window.
func serviceMetrics(p *phase, w workload) []metric {
	n := p.answers()
	return []metric{
		{"answers_per_s", n / p.length.Seconds(), "1/s"},
		{"answer_p50_ms", percentile(p.rec.lat[opAnswer], 0.50), "ms"},
		{"answer_p99_ms", percentile(p.rec.lat[opAnswer], 0.99), "ms"},
		{"create_p50_ms", percentile(p.rec.lat[opCreate], 0.50), "ms"},
		{"create_p95_ms", percentile(p.rec.lat[opCreate], 0.95), "ms"},
		{"cpu_ms_per_answer", ratio(ms(p.d.cpu()), n), "ms"},
		{"rounds_per_session", roundsPerSession(p.out, w.Sessions), "questions"},
		{"heap_mb", median(p.heap), "MiB"},
		{"answers", n, "count"},
		{"creates", float64(len(p.rec.lat[opCreate])), "count"},
	}
}

// registryLayers reads the per-layer counters the program already exports
// in its obs registry. The registry is process-wide, so the wal and repl
// counts add the primary's and the follower's work together.
func registryLayers(p *phase) []metric {
	d := p.d
	n := p.answers()
	per := func(x float64) float64 { return ratio(x, n) }
	return []metric{
		{"client.attempts_per_call", ratio(d.count("client.attempts"), d.count("client.requests")), "ratio"},
		{"server.shed", d.sum("server.shed.max_sessions", "server.shed.queue_full", "server.shed.draining"), "count"},
		{"lp.solves_per_answer", per(d.count("geom.lp_solves") + d.count("lp.warm.solves")), "count"},
		{"lp.solve_ms_per_answer", per(d.histSum("geom.lp_solve_ms")), "ms"},
		{"lp.warm_hit_ratio", ratio(d.count("lp.warm.hits"), d.count("lp.warm.solves")), "ratio"},
		{"lp.pivots_per_solve", ratio(d.count("lp.warm.pivots"), d.count("lp.warm.solves")), "count"},
		{"geom.vertices_ms_per_answer", per(d.histSum("geom.vertices_ms")), "ms"},
		{"geom.sample_ms_per_answer", per(d.histSum("geom.sample_ms")), "ms"},
		{"geom.inc_fallbacks_per_answer", per(d.count("geom.inc.fallbacks")), "count"},
		{"par.tasks_per_answer", per(d.count("par.do_tasks")), "count"},
		{"par.inline_ratio", ratio(d.count("par.inline_runs"), d.count("par.do_runs")), "ratio"},
		{"wal.appends_per_answer", per(d.count("wal.appends")), "count"},
		{"wal.fsyncs_per_answer", per(d.count("wal.fsyncs")), "count"},
		{"wal.fsync_ms_per_answer", per(d.histSum("wal.fsync_ms")), "ms"},
		{"wal.fsync_p99_ms", d.histQuantile("wal.fsync_ms", obs.LatencyBuckets(), 0.99), "ms"},
		{"wal.compactions", d.count("wal.compactions"), "count"},
		{"repl.records_per_batch", ratio(d.count("repl.records_sent"), d.count("repl.batches_sent")), "count"},
		{"repl.bytes_per_answer", per(d.count("repl.bytes_sent")), "bytes"},
		{"repl.lag_records_max", float64(p.lagMax), "count"},
		{"gc.cpu_fraction", d.gcFraction(), "ratio"},
		{"gc.runs_per_1k_answers", 1000 * per(d.gcRuns()), "count"},
		{"gen.late_p99_ms", percentile(p.rec.late, 0.99), "ms"},
	}
}

// runTraced measures the workload twice, each time for half the window:
// untraced for the registry counters and the throughput baseline, then
// with the algorithm wrapper, the handler middleware and the program's
// tracer sampling every session, for the span attribution.
func runTraced(ctx context.Context, w workload, cfg runConfig, hc *http.Client, rep *report) error {
	half := cfg.Window / 2
	plain, _, err := buildStack(ctx, w, cfg, hc, false)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	p := runPhase(ctx, plain, w, cfg, half)
	finishStack(ctx, plain, w, p)
	rep.absorb(p.rec)

	st, _, err := buildStack(ctx, w, cfg, hc, true)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	defer st.close()
	stopProfile, err := startProfile(cfg, w)
	if err != nil {
		return err
	}
	t := runPhase(ctx, st, w, cfg, half)
	if err := stopProfile(); err != nil {
		return err
	}
	err = st.spans.collectProgramSpans(ctx, hc, st.url)
	t.rec.check(err == nil, "collect traces: %v", err)
	dropped := t.d.count("trace.spans_dropped")
	t.rec.check(dropped == 0, "tracer dropped %v spans", dropped)
	finishStack(ctx, st, w, t)
	rep.absorb(t.rec)

	at := st.spans.attribute(t.rec.win)
	var attributed float64
	for _, v := range at.selfMS {
		attributed += v
	}
	rep.Metrics = append(rep.Metrics, serviceMetrics(p, w)...)
	rep.Metrics = append(rep.Metrics, registryLayers(p)...)
	rep.add("client.wire_ms_per_answer", at.clientMS-at.serverMS, "ms")
	rep.add("server.answer_p50_ms", median(at.server["server.answer"]), "ms")
	rep.add("server.create_p50_ms", median(at.server["server.create"]), "ms")
	rep.add("server.get_p50_ms", median(at.server["server.get"]), "ms")
	rep.add("server.self_ms_per_answer", at.serverSelfMS, "ms")
	rep.add("algo.load_ms", median(st.spans.loads), "ms")
	rep.add("algo.first_round_ms", median(at.firstRound), "ms")
	rep.add("algo.round_p50_ms", percentile(at.rounds, 0.50), "ms")
	rep.add("algo.round_p99_ms", percentile(at.rounds, 0.99), "ms")
	rep.add("algo.busy_ms_per_answer", at.busyMS, "ms")
	rep.add("oracle.wait_ms_per_answer", at.waitMS, "ms")
	for _, l := range layers {
		rep.add("self."+l.name+"_ms_per_answer", at.selfMS[l.span], "ms")
	}
	rep.add("trace.answers_attributed", float64(at.answers), "count")
	rep.add("trace.attributed_ratio", ratio(attributed, at.allClientMS), "ratio")
	rep.add("trace.overhead_ratio", ratio(p.answers(), t.answers()), "ratio")
	rep.add("trace.spans_dropped", dropped, "count")
	if cfg.TraceDir != "" {
		path := filepath.Join(cfg.TraceDir, fmt.Sprintf("%s-seed%d.spans.jsonl.gz", w.Name, cfg.Seed))
		if err := st.spans.writeSpans(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return nil
}

// startProfile starts a CPU profile of the traced half when a trace
// directory is set; the returned function stops and closes it.
func startProfile(cfg runConfig, w workload) (func() error, error) {
	if cfg.TraceDir == "" {
		return func() error { return nil }, nil
	}
	if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(cfg.TraceDir, fmt.Sprintf("%s-seed%d.cpu.pprof", w.Name, cfg.Seed)))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
