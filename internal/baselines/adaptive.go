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
	PoolSize  int // candidate pairs sampled per round (default 150)
	MaxRounds int // cap, default 500
}

func (c AdaptiveConfig) defaults() AdaptiveConfig {
	if c.PoolSize == 0 {
		c.PoolSize = 150
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 500
	}
	return c
}

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
	d := ds.Dim()
	poly := geom.NewPolytope(d)
	var trace []core.QA
	rounds := 0
	degReason := ""
	for rounds < a.cfg.MaxRounds {
		ball, err := poly.InnerBallCtx(context.Background())
		if err != nil {
			degReason = "utility range empty (contradictory answers)"
			break
		}
		emin, emax, err := poly.OuterRect()
		if err != nil {
			degReason = fmt.Sprintf("outer rectangle failed: %v", err)
			break
		}
		// Stop only when the utility vector itself is localized: every
		// coordinate pinned to within eps.
		if maxSpread(emin, emax) <= eps {
			break
		}
		act := a.pickPair(ds, poly, ball.Center)
		if act == nil {
			break
		}
		pi, pj := ds.Points[act[0]], ds.Points[act[1]]
		prefI := user.Prefer(pi, pj)
		if prefI {
			poly.Add(geom.NewHalfspace(pi, pj))
		} else {
			poly.Add(geom.NewHalfspace(pj, pi))
		}
		rounds++
		trace = append(trace, core.QA{I: act[0], J: act[1], PreferredI: prefI})
		if obs != nil {
			obs.Round(rounds, poly.Halfspaces)
		}
		if rounds%8 == 0 && len(poly.Halfspaces) > 2*d {
			poly.ReduceRedundant()
		}
	}
	// Return the top tuple under the learned preference.
	center := geom.SimplexCentroid(d)
	if ball, err := poly.InnerBallCtx(context.Background()); err == nil {
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
// region's center and still cuts it — the even-bisection heuristic.
func (a *Adaptive) pickPair(ds *dataset.Dataset, poly *geom.Polytope, center []float64) *[2]int {
	n := ds.Len()
	type cand struct {
		i, j int
		dist float64
	}
	cands := make([]cand, 0, a.cfg.PoolSize)
	for t := 0; t < a.cfg.PoolSize; t++ {
		i, j := a.rng.Intn(n), a.rng.Intn(n)
		if i == j {
			continue
		}
		h := geom.NewHalfspace(ds.Points[i], ds.Points[j])
		if vec.Norm(h.Normal) < 1e-12 {
			continue
		}
		cands = append(cands, cand{i: i, j: j, dist: h.Dist(center)})
	}
	sort.Slice(cands, func(x, y int) bool { return cands[x].dist < cands[y].dist })
	for ci, c := range cands {
		if ci >= 20 {
			break
		}
		if poly.CutsBothSides(geom.NewHalfspace(ds.Points[c.i], ds.Points[c.j]), 1e-9) {
			return &[2]int{c.i, c.j}
		}
	}
	return nil
}
