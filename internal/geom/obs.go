package geom

import (
	"context"

	"isrl/internal/lp"
	"isrl/internal/obs"
	"isrl/internal/trace"
)

// Hot-path instrumentation. LP solving and hit-and-run sampling dominate
// the cost of every polytope-maintaining algorithm, so their call volumes
// are counted into the process-wide registry: perf PRs get a baseline, and
// a live server exposes them at /metrics. Counters are single atomic adds;
// the overhead is noise next to one simplex pivot.
var (
	lpSolves     = obs.Default().Counter("geom.lp_solves")
	sampleCalls  = obs.Default().Counter("geom.sample_calls")
	samplePoints = obs.Default().Counter("geom.sample_points")
	vertexEnums  = obs.Default().Counter("geom.vertex_enums")

	// Duration histograms over MicroBuckets: one LP solve or sampling pass
	// runs in microseconds, below the floor of the default latency buckets.
	lpSolveMS  = obs.Default().Histogram("geom.lp_solve_ms", obs.MicroBuckets())
	sampleMS   = obs.Default().Histogram("geom.sample_ms", obs.MicroBuckets())
	verticesMS = obs.Default().Histogram("geom.vertices_ms", obs.MicroBuckets())

	// Round-incremental engine counters: how often a new halfspace was folded
	// into the maintained vertex set by a local clip, how often the engine had
	// to rebuild from scratch, how often it degraded mid-operation (numeric
	// edge or injected fault), and the hit volumes that replace repeat
	// enumerations, LP probes (certified by the inner ball) and
	// outer-rectangle solves.
	incClips           = obs.Default().Counter("geom.inc.clips")
	incRebuilds        = obs.Default().Counter("geom.inc.rebuilds")
	incFallbacks       = obs.Default().Counter("geom.inc.fallbacks")
	incVertHits        = obs.Default().Counter("geom.inc.vertex_hits")
	incProbeBallHits   = obs.Default().Counter("geom.inc.probe_ball_hits")
	incRectWitnessHits = obs.Default().Counter("geom.inc.rect_witness_hits")
)

// solveLP is lp.Solve with a call counter and duration histogram — every
// geometry-layer LP goes through here. When ctx carries an active trace the
// solve is also an "lp.solve" span with the problem shape and outcome, timed
// by the same clock as the histogram.
func solveLP(ctx context.Context, p *lp.Problem) lp.Result {
	lpSolves.Inc()
	_, t := trace.StartTimer(ctx, "lp.solve", lpSolveMS)
	res := lp.Solve(p)
	if sp := t.Span(); sp != nil {
		sp.SetInt("vars", int64(p.NumVars))
		sp.SetInt("constraints", int64(len(p.Constraints)))
		sp.SetAttr("status", res.Status.String())
	}
	t.End()
	return res
}
