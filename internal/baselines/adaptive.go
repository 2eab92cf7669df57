package baselines

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"isrl/internal/core"
	"isrl/internal/dataset"
	"isrl/internal/geom"
	"isrl/internal/vec"
)

// AdaptiveConfig tunes the preference-learning baseline.
type AdaptiveConfig struct {
	MaxRounds int // cap, default 500
}

func (c AdaptiveConfig) defaults() AdaptiveConfig {
	if c.MaxRounds == 0 {
		c.MaxRounds = 500
	}
	return c
}

// adaptivePool is the number of candidate pairs Adaptive samples per round.
const adaptivePool = 150

// Adaptive reconstructs the preference-learning algorithm of Qian et al.
// (VLDB'15) discussed in the paper's related work: it asks adaptively
// chosen pairwise comparisons to learn the *utility vector itself* — each
// round bisecting the consistent region as evenly as it can — and only
// then returns the top tuple under the learned vector.
//
// The paper's critique is that deriving the full preference wastes
// questions when the goal is just an ε-regret tuple: Adaptive keeps asking
// until the utility vector is pinned to precision ε per coordinate, long
// after some tuple is already certifiably good enough. The ext-adaptive
// experiment quantifies exactly that gap.
type Adaptive struct {
	cfg AdaptiveConfig
	rng *rand.Rand
}

// NewAdaptive returns the baseline.
func NewAdaptive(cfg AdaptiveConfig, rng *rand.Rand) *Adaptive {
	return &Adaptive{cfg: cfg.defaults(), rng: rng}
}

// Name implements core.Algorithm.
func (a *Adaptive) Name() string { return "Adaptive" }

// Run implements core.Algorithm. eps is interpreted as the target precision
// of the learned utility vector (per the algorithm's own goal), not as a
// regret bound.
func (a *Adaptive) Run(ds *dataset.Dataset, user core.User, eps float64, obs core.Observer) (core.Result, error) {
	ctx := context.Background()
	d := ds.Dim()
	g := geom.NewIncremental(d)
	var trace []core.QA
	rounds := 0
	degReason := ""
	for rounds < a.cfg.MaxRounds {
		ball, err := g.InnerBallCtx(ctx)
		if err != nil {
			degReason = "utility range empty (contradictory answers)"
			break
		}
		emin, emax, err := g.OuterRectCtx(ctx)
		if err != nil {
			degReason = fmt.Sprintf("outer rectangle failed: %v", err)
			break
		}
		// Stop only when the utility vector itself is localized: every
		// coordinate pinned to within eps.
		if maxSpread(emin, emax) <= eps {
			break
		}
		act := a.pickPair(ds, g, ball)
		if act == nil {
			break
		}
		pi, pj := ds.Points[act[0]], ds.Points[act[1]]
		prefI := user.Prefer(pi, pj)
		if prefI {
			g.AddCtx(ctx, geom.NewHalfspace(pi, pj))
		} else {
			g.AddCtx(ctx, geom.NewHalfspace(pj, pi))
		}
		rounds++
		trace = append(trace, core.QA{I: act[0], J: act[1], PreferredI: prefI})
		if obs != nil {
			obs.Round(rounds, g.Halfspaces())
		}
		if rounds%8 == 0 && len(g.Halfspaces()) > 2*d {
			g.Reduce()
		}
	}
	// Return the top tuple under the learned preference.
	center := geom.SimplexCentroid(d)
	if ball, err := g.InnerBallCtx(ctx); err == nil {
		center = ball.Center
	}
	if degReason != "" {
		return core.BestEffortResult(ds, center, rounds, trace, degReason), nil
	}
	idx := ds.TopPoint(center)
	return core.Result{PointIndex: idx, Point: ds.Points[idx], Rounds: rounds, Trace: trace}, nil
}

func maxSpread(emin, emax []float64) float64 {
	var m float64
	for i := range emin {
		if s := emax[i] - emin[i]; s > m {
			m = s
		}
	}
	return m
}

// pickPair selects the sampled pair whose hyperplane passes nearest the
// center of R's inner ball and still cuts R — the even-bisection heuristic.
// ball must be the inner ball of g's current R; it certifies most cuts
// without an LP.
func (a *Adaptive) pickPair(ds *dataset.Dataset, g *geom.Incremental, ball geom.Ball) *[2]int {
	n := ds.Len()
	type cand struct {
		i, j int
		dist float64
	}
	cands := make([]cand, 0, adaptivePool)
	for t := 0; t < adaptivePool; t++ {
		i, j := a.rng.Intn(n), a.rng.Intn(n)
		if i == j {
			continue
		}
		h := geom.NewHalfspace(ds.Points[i], ds.Points[j])
		if vec.Norm(h.Normal) < 1e-12 {
			continue
		}
		cands = append(cands, cand{i: i, j: j, dist: h.Dist(ball.Center)})
	}
	sort.Slice(cands, func(x, y int) bool { return cands[x].dist < cands[y].dist })
	for ci, c := range cands {
		if ci >= 20 {
			break
		}
		if g.CutsBothSides(ball, geom.NewHalfspace(ds.Points[c.i], ds.Points[c.j]), 1e-9) {
			return &[2]int{c.i, c.j}
		}
	}
	return nil
}
