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
// highest utility at the center, sample numSamples utility vectors inside R,
// and report the worst regret ratio of p over the samples — the current
// worst-case performance if interaction stopped now. The paper draws 10,000
// samples. The center itself is always included so the estimate is defined
// even when sampling fails (degenerate R).
func MaxRegretEstimate(ds *dataset.Dataset, halfspaces []geom.Halfspace, rng *rand.Rand, numSamples int) float64 {
	ctx := context.Background()
	d := ds.Dim()
	g := geom.NewIncremental(d)
	for _, h := range halfspaces {
		g.AddCtx(ctx, h)
	}
	ball, err := g.InnerBallCtx(ctx)
	if err != nil {
		// Empty range (possible with noisy users): fall back to the simplex
		// centroid so the metric stays defined.
		ball = geom.Ball{Center: geom.SimplexCentroid(d)}
	}
	p := ds.Points[ds.TopPoint(ball.Center)]
	worst := ds.RegretRatio(p, ball.Center)
	samples, err := g.SampleCtx(ctx, rng, numSamples)
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
