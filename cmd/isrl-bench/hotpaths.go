package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"isrl/internal/aa"
	"isrl/internal/core"
	"isrl/internal/dataset"
	"isrl/internal/ea"
	"isrl/internal/geom"
	"isrl/internal/lp"
	"isrl/internal/nn"
	"isrl/internal/rl"
	"isrl/internal/trace"
	"isrl/internal/vec"
)

// The -hotpaths mode measures the optimized hot paths against their serial
// baselines with testing.Benchmark and writes a machine-readable report
// (BENCH_hotpaths.json). The serial baselines replicate the pre-batching
// code paths exactly, so the speedup column is apples-to-apples.

type benchRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`

	// RoundsPerSec is set only on whole-session rows (one op = one full
	// seeded interactive session): the session's deterministic round count
	// divided by its wall time, the end-to-end number the incremental
	// geometry engine is meant to move.
	RoundsPerSec float64 `json:"rounds_per_sec,omitempty"`
}

type speedupRow struct {
	Name      string  `json:"name"`
	Baseline  string  `json:"baseline"`
	Optimized string  `json:"optimized"`
	Speedup   float64 `json:"speedup"`
}

type hotpathsReport struct {
	Generated  string       `json:"generated"`
	GoVersion  string       `json:"go_version"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	SIMD       string       `json:"simd"` // vec.SIMD(): the kernels behind the GEMM and SELU rows
	Quick      bool         `json:"quick"`
	Note       string       `json:"note"`
	Benchmarks []benchRow   `json:"benchmarks"`
	Speedups   []speedupRow `json:"speedups"`
}

// benchReps is how many times each benchmark is repeated outside -quick; the
// fastest repetition is reported, which filters out scheduler/GC interference
// the same way benchstat's min column does.
var benchReps = 3

func row(name string, fn func(b *testing.B)) benchRow {
	best := testing.Benchmark(fn)
	for rep := 1; rep < benchReps; rep++ {
		if r := testing.Benchmark(fn); nsPerOp(r) < nsPerOp(best) {
			best = r
		}
	}
	return benchRow{
		Name:        name,
		NsPerOp:     nsPerOp(best),
		BytesPerOp:  best.AllocedBytesPerOp(),
		AllocsPerOp: best.AllocsPerOp(),
		Iterations:  best.N,
	}
}

func nsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// hotPoly builds a d-dimensional utility range narrowed by random preference
// halfspaces, mirroring mid-interaction polytope state. A halfspace that
// would leave the range with no vertex is skipped.
func hotPoly(d int, seed int64) *geom.Incremental {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	g := geom.NewIncremental(d)
	for k := 0; k < d+2; k++ {
		pi := make([]float64, d)
		pj := make([]float64, d)
		for i := 0; i < d; i++ {
			pi[i] = rng.Float64()
			pj[i] = rng.Float64()
		}
		h := geom.NewHalfspace(pi, pj)
		hs := g.Halfspaces()
		if vs, err := geom.ScratchVertices(ctx, d, append(hs[:len(hs):len(hs)], h)); err == nil && len(vs) > 0 {
			g.AddCtx(ctx, h)
		}
	}
	return g
}

// hotLP mirrors the geometry layer's feasibility probes: a random objective
// over the utility simplex cut by extra halfspaces, oriented to stay feasible.
func hotLP(rng *rand.Rand, d, cuts int) *lp.Problem {
	p := &lp.Problem{NumVars: d, Maximize: make([]float64, d)}
	for i := range p.Maximize {
		p.Maximize[i] = rng.NormFloat64()
	}
	ones := make([]float64, d)
	for i := range ones {
		ones[i] = 1
	}
	p.AddEQ(ones, 1)
	for k := 0; k < cuts; k++ {
		w := make([]float64, d)
		var wu float64
		for i := range w {
			w[i] = rng.NormFloat64()
			wu += w[i] / float64(d)
		}
		if wu < 0 {
			for i := range w {
				w[i] = -w[i]
			}
		}
		p.AddGE(w, 0)
	}
	return p
}

// roundCuts builds a fixed sequence of n preference halfspaces at dimension
// d, each oriented to keep a hidden witness vector feasible — the cut stream
// a real interactive session feeds the geometry layer. The sequence is
// independent of -quick so alloc counts stay comparable across runs.
func roundCuts(d, n int, seed int64) []geom.Halfspace {
	rng := rand.New(rand.NewSource(seed))
	u := geom.SampleSimplex(rng, d)
	cuts := make([]geom.Halfspace, n)
	for k := range cuts {
		pi := make([]float64, d)
		pj := make([]float64, d)
		for i := 0; i < d; i++ {
			pi[i] = rng.Float64()
			pj[i] = rng.Float64()
		}
		h := geom.NewHalfspace(pi, pj)
		var hu float64
		for i := range h.Normal {
			hu += h.Normal[i] * u[i]
		}
		if hu < 0 {
			h = h.Flip()
		}
		cuts[k] = h
	}
	return cuts
}

func hotActions(rng *rand.Rand, k, dim int) [][]float64 {
	actions := make([][]float64, k)
	for i := range actions {
		actions[i] = make([]float64, dim)
		for j := range actions[i] {
			actions[i][j] = rng.Float64()
		}
	}
	return actions
}

// hotBatch builds a replay minibatch of n transitions with mh next actions
// each; every seventh transition is terminal.
func hotBatch(rng *rand.Rand, stateDim, actionDim, n, mh int) []rl.Transition {
	batch := make([]rl.Transition, n)
	for i := range batch {
		batch[i] = rl.Transition{
			State:       hotActions(rng, 1, stateDim)[0],
			Action:      hotActions(rng, 1, actionDim)[0],
			Next:        hotActions(rng, 1, stateDim)[0],
			NextActions: hotActions(rng, mh, actionDim),
			Terminal:    i%7 == 0,
		}
	}
	return batch
}

// benchScoring returns the serial (per-candidate Q forward + argmax, the
// pre-batching code path) and batched (Agent.BestCtx, one GEMM) rows for an
// agent of the given shape scoring k candidates.
func benchScoring(prefix string, stateDim, actionDim, k int) (serial, batched benchRow) {
	rng := rand.New(rand.NewSource(4))
	a := rl.NewAgent(stateDim, actionDim, rl.Config{}, rng)
	state := make([]float64, stateDim)
	actions := hotActions(rng, k, actionDim)
	serial = row(prefix+"_serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			best, bq := 0, math.Inf(-1)
			for c, act := range actions {
				if q := a.Q(state, act); q > bq {
					best, bq = c, q
				}
			}
			_ = best
		}
	})
	batched = row(prefix+"_batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a.BestCtx(context.Background(), state, actions)
		}
	})
	return serial, batched
}

// benchLoadedScoring returns the row of an agent loaded from a serialized
// model, the way a serving session scores: one Agent.BestCtx over a fixed
// m_h = 5 candidates, each call borrowing a pooled View of the shared
// network.
func benchLoadedScoring(name string, stateDim, actionDim int) (benchRow, error) {
	rng := rand.New(rand.NewSource(5))
	blob, err := rl.NewAgent(stateDim, actionDim, rl.Config{}, rng).MarshalBinary()
	if err != nil {
		return benchRow{}, err
	}
	a, err := rl.UnmarshalAgent(blob, rl.Config{})
	if err != nil {
		return benchRow{}, err
	}
	state := hotActions(rng, 1, stateDim)[0]
	actions := hotActions(rng, 5, actionDim)
	return row(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a.BestCtx(context.Background(), state, actions)
		}
	}), nil
}

func runHotpaths(quick bool, outPath, comparePath string) error {
	cands := 64
	if quick {
		cands = 32
		benchReps = 1
	}

	rep := hotpathsReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		SIMD:       vec.SIMD(),
		Quick:      quick,
		Note: "Serial baselines replicate the pre-batching code paths. " +
			"dqn/question scoring speedups are algorithmic (batched GEMM + shared state " +
			"prefix) and hold at any core count.",
	}
	add := func(rs ...benchRow) {
		rep.Benchmarks = append(rep.Benchmarks, rs...)
	}
	speed := func(name string, base, opt benchRow) {
		rep.Speedups = append(rep.Speedups, speedupRow{
			Name:      name,
			Baseline:  base.Name,
			Optimized: opt.Name,
			Speedup:   base.NsPerOp / opt.NsPerOp,
		})
	}

	// DQN candidate scoring, EA shape at d=4 (state 5d+1=21, action 2d=8).
	s, b := benchScoring("dqn_score_ea_d4", 21, 8, cands)
	add(s, b)
	speed("dqn_candidate_scoring", s, b)
	loaded, err := benchLoadedScoring("dqn_score_ea_d4_loaded", 21, 8)
	if err != nil {
		return err
	}
	add(loaded)

	// Candidate-question scoring, AA shape at d=4 (state 3d+1=13, action 2d=8).
	s, b = benchScoring("question_score_aa_d4", 13, 8, cands)
	add(s, b)
	speed("question_scoring", s, b)

	// The first dense layer at AA's d=20 shape (state 61 ⊕ action 40 → 64
	// hidden) over a minibatch of 64 rows. The generic row runs the
	// pre-SIMD forward, vec.MatMulNT on the row-major weights; the other is
	// Dense.ForwardBatch, which packs Wᵀ and runs the SIMD kernel when this
	// host has one (the report's "simd" field).
	fwdRng := rand.New(rand.NewSource(27))
	dense := nn.NewDense(101, 64, fwdRng)
	fwdX := vec.NewMat(64, 101)
	for i := range fwdX.Data {
		fwdX.Data[i] = fwdRng.NormFloat64()
	}
	fwdW := &vec.Mat{Rows: 64, Cols: 101, Data: dense.Weight.W}
	fwdOut := vec.NewMat(64, 64)
	gen := row("dense_forward_aa_d20_generic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vec.MatMulNT(fwdOut, fwdX, fwdW, dense.Bias.W)
		}
	})
	simd := row("dense_forward_aa_d20", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dense.ForwardBatch(fwdX)
		}
	})
	add(gen, simd)
	speed("dense_forward_simd", gen, simd)

	// The hidden SELU over a training step's next-action rows at the same
	// shape: 64 transitions × 5 next actions, 64 outputs each. The generic
	// row runs the single-vector Forward row by row, the scalar math.Exp loop
	// that is also the batched pass's fallback; the other is
	// Activate.ForwardBatch, whose whole blocks run on the SELU kernel when
	// this host has it (a "simd" of "avx2+fma").
	seluX := vec.NewMat(320, 64)
	for i := range seluX.Data {
		seluX.Data[i] = fwdRng.NormFloat64()
	}
	selu := nn.NewActivate(nn.SELU)
	gen = row("selu_forward_aa_d20_generic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for r := 0; r < seluX.Rows; r++ {
				selu.Forward(seluX.Row(r))
			}
		}
	})
	simd = row("selu_forward_aa_d20", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			selu.ForwardBatch(seluX)
		}
	})
	add(gen, simd)
	speed("selu_forward_simd", gen, simd)

	// One DQN gradient step at AA's d=20 shape (state 3d+1=61, action 2d=40)
	// and at EA's d=4 shape (state 5d+1=21, action 2d=8): the paper's
	// minibatch of 64 with m_h = 5 next actions per transition.
	for _, c := range []struct {
		name                string
		stateDim, actionDim int
	}{{"dqn_train_step_aa_d20", 61, 40}, {"dqn_train_step_ea_d4", 21, 8}} {
		agent := rl.NewAgent(c.stateDim, c.actionDim, rl.Config{}, rand.New(rand.NewSource(25)))
		batch := hotBatch(rand.New(rand.NewSource(26)), c.stateDim, c.actionDim, 64, 5)
		add(row(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				agent.TrainBatch(batch)
			}
		}))
	}

	// Hit-and-run sampling at d=4: 256 points from the default 4 chains.
	// Like an EA session's, the handle keeps no warm inner-ball program, so
	// each draw includes one scratch ball LP.
	poly := hotPoly(4, 11)
	add(row("sample_d4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := poly.SampleCtx(context.Background(), geom.NewRand(7), 256); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// LP solver (arena-pooled) and vertex enumeration timings.
	for _, c := range []struct {
		name    string
		d, cuts int
	}{{"lp_solve_d4", 4, 10}, {"lp_solve_d20", 20, 15}} {
		prob := hotLP(rand.New(rand.NewSource(int64(c.d))), c.d, c.cuts)
		add(row(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lp.Solve(prob)
			}
		}))
	}
	add(row("vertices_d4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := geom.ScratchVertices(context.Background(), 4, poly.Halfspaces()); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Round geometry: replay a fixed 12-cut d=4 interaction through the
	// per-round geometry reads (vertices, inner sphere, outer rectangle).
	// The scratch row rebuilds everything from the halfspace set each round
	// (geom.ScratchRound), while the incremental row maintains the vertex set
	// by halfspace clipping and re-solves warm LPs.
	cuts := roundCuts(4, 12, 13)
	scr := row("round_geometry_scratch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k := range cuts {
				if err := geom.ScratchRound(context.Background(), 4, cuts[:k+1]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	inc := row("round_geometry_incremental", func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := geom.NewIncremental(4)
			for _, h := range cuts {
				g.AddCtx(ctx, h)
				if _, err := g.VerticesCtx(ctx); err != nil {
					b.Fatal(err)
				}
				if _, err := g.InnerBallCtx(ctx); err != nil {
					b.Fatal(err)
				}
				if _, _, err := g.OuterRectCtx(ctx); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	add(scr, inc)
	speed("round_geometry_d4", scr, inc)

	// Scoring every row of a skyline at d=4 (the ea_anti_d4 workload's,
	// 2,686 rows) and d=20 (the player stand-in's, 3,359 rows), the scan
	// under EA's top-1 queries and stopping test. The dot row is
	// Dataset.Scores without a top-1 index, AA's scan: four rows per pass
	// in place, each in vec.Dot's order. The other is Scores on the index's
	// column-major copy, 32 rows per vec.DotCols call, and must give the
	// same bits. Building the player index takes a
	// few seconds. The player skyline's own construction is a row too.
	rawAnti, err := dataset.Generate("anti", rand.New(rand.NewSource(1)), 10000, 4)
	if err != nil {
		return err
	}
	rawPlayer, err := dataset.Generate("player", rand.New(rand.NewSource(1)), 0, 0)
	if err != nil {
		return err
	}
	add(row("skyline_player", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rawPlayer.Skyline()
		}
	}))
	for _, sc := range []struct {
		name string
		ds   *dataset.Dataset
	}{{"scan_d4", rawAnti.Skyline()}, {"scan_d20", rawPlayer.Skyline()}} {
		plain := &dataset.Dataset{Points: sc.ds.Points}
		sc.ds.BuildTopIndex()
		u := geom.SampleSimplex(rand.New(rand.NewSource(29)), sc.ds.Dim())
		want, got := plain.Scores(u, nil), sc.ds.Scores(u, nil)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return fmt.Errorf("hotpaths: %s: row %d scores %v on the kernel, %v by vec.Dot", sc.name, i, got[i], want[i])
			}
		}
		dot := row(sc.name+"_dot", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plain.Scores(u, want)
			}
		})
		kernel := row(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc.ds.Scores(u, got)
			}
		})
		if dot.AllocsPerOp != 0 || kernel.AllocsPerOp != 0 {
			return fmt.Errorf("hotpaths: %s scans allocate (%d and %d allocs/op), want 0", sc.name, dot.AllocsPerOp, kernel.AllocsPerOp)
		}
		add(dot, kernel)
		speed(sc.name+"_simd", dot, kernel)
	}

	// End-to-end sessions: one op runs a full seeded interaction to
	// completion on the round-incremental engine; rounds_per_sec divides the
	// deterministic round count by the per-op wall time. The d=20 AA row is
	// the paper's high-dimensional case, where LP solves dominate a round.
	dsEA := dataset.Anticorrelated(rand.New(rand.NewSource(21)), 300, 4).Skyline()
	benchUser := core.SimulatedUser{Utility: []float64{0.4, 0.3, 0.2, 0.1}}
	runEASession := func() (core.Result, error) {
		cfg := ea.Config{Me: 3, Mh: 4, NumSamples: 24, MaxRounds: 60}
		e := ea.New(dsEA, 0.1, cfg, rand.New(rand.NewSource(22)))
		return e.Run(dsEA, benchUser, 0.1, nil)
	}
	runAA := func(ds *dataset.Dataset, user core.User) func() (core.Result, error) {
		return func() (core.Result, error) {
			cfg := aa.Config{Mh: 4, TopK: 10, RandPairs: 40, MaxLPChecks: 30, MaxRounds: 120}
			a := aa.New(ds, 0.1, cfg, rand.New(rand.NewSource(23)))
			return a.Run(ds, user, 0.1, nil)
		}
	}
	dsD20 := dataset.Anticorrelated(rand.New(rand.NewSource(21)), 300, 20).Skyline()
	userD20 := core.SimulatedUser{Utility: geom.SampleSimplex(rand.New(rand.NewSource(24)), 20)}
	for _, sc := range []struct {
		name string
		run  func() (core.Result, error)
	}{
		{"ea_session_d4_incremental", runEASession},
		{"aa_session_d4_incremental", runAA(dsEA, benchUser)},
		{"aa_session_d20_incremental", runAA(dsD20, userD20)},
	} {
		ref, err := sc.run()
		if err != nil {
			return fmt.Errorf("hotpaths: %s: %w", sc.name, err)
		}
		if ref.Degraded || ref.Rounds == 0 {
			return fmt.Errorf("hotpaths: %s: degenerate session (%+v)", sc.name, ref)
		}
		r := row(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sc.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
		r.RoundsPerSec = float64(ref.Rounds) / (r.NsPerOp * 1e-9)
		add(r)
	}

	// Disabled-path tracing overhead: a span start attempt on a context with
	// no active trace, the extra cost every hot-path call pays when tracing
	// is off. This must stay at zero allocations and single-digit
	// nanoseconds; the row both records it in the report and enforces it.
	disabled := row("trace_disabled_span", func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := trace.StartLeaf(ctx, "bench.noop")
			sp.SetInt("n", int64(i))
			sp.End()
		}
	})
	if disabled.AllocsPerOp != 0 {
		return fmt.Errorf("hotpaths: disabled-path span costs %d allocs/op, want 0", disabled.AllocsPerOp)
	}
	if disabled.NsPerOp > 100 {
		return fmt.Errorf("hotpaths: disabled-path span costs %.1f ns/op, want ≤100", disabled.NsPerOp)
	}
	add(disabled)

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(outPath, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	for _, sp := range rep.Speedups {
		fmt.Printf("  %-24s %.2fx (%s vs %s)\n", sp.Name, sp.Speedup, sp.Optimized, sp.Baseline)
	}
	if comparePath != "" {
		return compareReports(comparePath, rep)
	}
	return nil
}

// fixedWorkloadRows are the benchmarks whose per-op workload is identical in
// -quick and full runs, so their allocation counts are directly comparable
// against a committed baseline. The serial and batched scoring rows scale
// with -quick and are excluded; the loaded-agent row scores a fixed 5.
var fixedWorkloadRows = map[string]bool{
	"dqn_score_ea_d4_loaded":       true,
	"dqn_train_step_aa_d20":        true,
	"dqn_train_step_ea_d4":         true,
	"dense_forward_aa_d20":         true,
	"dense_forward_aa_d20_generic": true,
	"selu_forward_aa_d20":          true,
	"selu_forward_aa_d20_generic":  true,
	"sample_d4":                    true,
	"vertices_d4":                  true,
	"lp_solve_d4":                  true,
	"lp_solve_d20":                 true,
	"trace_disabled_span":          true,
	"round_geometry_scratch":       true,
	"round_geometry_incremental":   true,
	"ea_session_d4_incremental":    true,
	"aa_session_d4_incremental":    true,
	"aa_session_d20_incremental":   true,
	"skyline_player":               true,
	"scan_d4_dot":                  true,
	"scan_d4":                      true,
	"scan_d20_dot":                 true,
	"scan_d20":                     true,
}

// compareReports gates the fresh report against a committed baseline:
// fixed-workload allocation counts must not blow past the baseline by more
// than 25% + 2 allocs, and any speedup the baseline reported as a real win
// (≥1.1×) must not have decayed into a slowdown (<1.0×). Allocation counts
// do not depend on the hardware, so that gate runs on every host; speedups
// do, so the sign-flip checks skip themselves when the baseline was recorded
// on different hardware, which includes a different SIMD kernel. Timing
// noise is expected — only sign flips and alloc growth fail.
func compareReports(basePath string, cur hotpathsReport) error {
	raw, err := os.ReadFile(basePath)
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	var base hotpathsReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("compare: parse %s: %w", basePath, err)
	}
	var fails []string
	gatedSpeedups, gatedAllocs := 0, 0
	if base.GOOS != cur.GOOS || base.GOARCH != cur.GOARCH ||
		base.NumCPU != cur.NumCPU || base.GOMAXPROCS != cur.GOMAXPROCS || base.SIMD != cur.SIMD {
		fmt.Printf("compare: baseline host (%s/%s, %d cpu, GOMAXPROCS %d, simd %q) differs from this host (%s/%s, %d cpu, GOMAXPROCS %d, simd %q); skipping speedup checks\n",
			base.GOOS, base.GOARCH, base.NumCPU, base.GOMAXPROCS, base.SIMD,
			cur.GOOS, cur.GOARCH, cur.NumCPU, cur.GOMAXPROCS, cur.SIMD)
	} else {
		curSp := map[string]float64{}
		for _, sp := range cur.Speedups {
			curSp[sp.Name] = sp.Speedup
		}
		for _, sp := range base.Speedups {
			if sp.Speedup < 1.1 {
				continue // the baseline never claimed a win worth gating
			}
			gatedSpeedups++
			got, ok := curSp[sp.Name]
			if !ok {
				fails = append(fails, fmt.Sprintf("speedup %s missing from this run", sp.Name))
				continue
			}
			if got < 1.0 {
				fails = append(fails, fmt.Sprintf("speedup %s regressed to %.2fx (baseline %.2fx)", sp.Name, got, sp.Speedup))
			}
		}
	}
	curRows := map[string]benchRow{}
	for _, r := range cur.Benchmarks {
		curRows[r.Name] = r
	}
	for _, r := range base.Benchmarks {
		if !fixedWorkloadRows[r.Name] {
			continue
		}
		gatedAllocs++
		got, ok := curRows[r.Name]
		if !ok {
			fails = append(fails, fmt.Sprintf("benchmark %s missing from this run", r.Name))
			continue
		}
		if limit := float64(r.AllocsPerOp)*1.25 + 2; float64(got.AllocsPerOp) > limit {
			fails = append(fails, fmt.Sprintf("%s allocates %d/op (baseline %d/op, limit %.0f)", r.Name, got.AllocsPerOp, r.AllocsPerOp, limit))
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("compare: %d regression(s) vs %s:\n  %s", len(fails), basePath, strings.Join(fails, "\n  "))
	}
	fmt.Printf("compare: no regressions vs %s (%d gated speedups, %d alloc floors)\n",
		basePath, gatedSpeedups, gatedAllocs)
	return nil
}
