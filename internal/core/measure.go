package core

import (
	"context"
	"math/rand"

	"isrl/internal/dataset"
	"isrl/internal/geom"
)

// MaxRegretEstimate reproduces the paper's per-round measurement protocol
// for Figures 7–8: from the halfspaces learned so far, build the utility
// range R, take the inner-sphere center, pick the dataset point p with the
// highest utility at the center, sample utility vectors inside R, and report
// the worst regret ratio of p over the samples — the current worst-case
// performance if interaction stopped now.
//
// numSamples ≤ 0 selects the paper's 10,000; the center itself is always
// included so the estimate is defined even when sampling fails (degenerate
// R).
func MaxRegretEstimate(ds *dataset.Dataset, halfspaces []geom.Halfspace, rng *rand.Rand, numSamples int) float64 {
	if numSamples <= 0 {
		numSamples = 10000
	}
	d := ds.Dim()
	poly := geom.NewPolytope(d)
	for _, h := range halfspaces {
		poly.Add(h)
	}
	ball, ballErr := poly.InnerBallCtx(context.Background())
	if ballErr != nil {
		// Empty range (possible with noisy users): fall back to the simplex
		// centroid so the metric stays defined.
		ball = geom.Ball{Center: geom.SimplexCentroid(d)}
	}
	p := ds.Points[ds.TopPoint(ball.Center)]
	worst := ds.RegretRatio(p, ball.Center)
	// Reuse the ball center as the sampling start: it is exactly the point
	// SampleCtx would recompute with its own inner-ball LP, so passing it skips
	// that duplicate solve without changing a single drawn coordinate. Only
	// a strictly interior center qualifies — a degenerate ball must keep the
	// empty-interior error path.
	opts := geom.SampleOptions{}
	if ballErr == nil && ball.Radius > 0 {
		opts.Start = ball.Center
	}
	samples, err := poly.SampleCtx(context.Background(), rng, numSamples, opts)
	if err != nil {
		return worst
	}
	for _, u := range samples {
		if rr := ds.RegretRatio(p, u); rr > worst {
			worst = rr
		}
	}
	return worst
}
