package baselines

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"

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
	return a.RunContext(context.Background(), ds, user, eps, obs)
}

// RunContext implements core.ContextAlgorithm: Run with per-round tracing
// (see core.Loop.Run).
func (a *Adaptive) RunContext(ctx context.Context, ds *dataset.Dataset, user core.User, eps float64, obs core.Observer) (core.Result, error) {
	loop := core.Loop{Env: adaptiveEnv{a: a, ds: ds}, DS: ds, MaxRounds: a.cfg.MaxRounds,
		CapReason: "round cap reached before the utility vector was localized"}
	return loop.Run(ctx, ds, user, eps, obs)
}

// adaptiveEnv is Adaptive's side of the interaction loop for one session.
type adaptiveEnv struct {
	a  *Adaptive
	ds *dataset.Dataset
}

// Round implements core.Env: stop only when the utility vector itself is
// localized — every coordinate of R's outer rectangle pinned to within eps —
// or when no sampled pair cuts R, answering with the top tuple at the inner
// ball's center, the learned preference. Otherwise ask the pair whose
// hyperplane bisects R most evenly.
func (e adaptiveEnv) Round(ctx context.Context, geo *geom.Incremental, eps float64) (*core.Round, error) {
	ball, err := geo.InnerBallCtx(ctx)
	if err != nil {
		return &core.Round{Terminal: true, Point: -1,
			Degraded: true, Reason: "utility range empty (contradictory answers)"}, nil
	}
	emin, emax, err := geo.OuterRectCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("adaptive: outer rectangle failed: %w", err)
	}
	r := &core.Round{Center: ball.Center, Point: -1}
	if maxSpread(emin, emax) > eps {
		r.Actions = e.a.pickPair(e.ds, geo, ball)
	}
	if len(r.Actions) == 0 {
		r.Terminal = true
		r.Point = e.ds.TopPoint(ball.Center)
	}
	return r, nil
}

// Prune implements core.Env: like AA, Adaptive drops redundant halfspaces
// every 8th round so the per-round LPs stay small on long interactions.
func (e adaptiveEnv) Prune(geo *geom.Incremental, rounds int) {
	if rounds%8 == 0 && len(geo.Halfspaces()) > 2*geo.Dim() {
		geo.Reduce()
	}
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
// center of R's inner ball and still cuts R — the even-bisection heuristic —
// as the one action of a view; none when no candidate cuts R. ball must be
// the inner ball of g's current R; it certifies most cuts without an LP.
func (a *Adaptive) pickPair(ds *dataset.Dataset, g *geom.Incremental, ball geom.Ball) []core.Action {
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
		if i > j {
			i, j = j, i // (i, j) and (j, i) are one hyperplane: keep one orientation
		}
		h := geom.NewHalfspace(ds.Points[i], ds.Points[j])
		if vec.Norm(h.Normal) < 1e-12 {
			continue
		}
		cands = append(cands, cand{i: i, j: j, dist: h.Dist(ball.Center)})
	}
	slices.SortStableFunc(cands, func(x, y cand) int {
		return cmp.Or(cmp.Compare(x.dist, y.dist), cmp.Compare(x.i, y.i), cmp.Compare(x.j, y.j))
	})
	// A pair drawn twice has the same distance, so its copies are adjacent.
	uniq := cands[:0]
	for _, c := range cands {
		if k := len(uniq); k == 0 || uniq[k-1].i != c.i || uniq[k-1].j != c.j {
			uniq = append(uniq, c)
		}
	}
	for ci, c := range uniq {
		if ci >= 20 {
			break
		}
		if g.CutsBothSides(ball, geom.NewHalfspace(ds.Points[c.i], ds.Points[c.j]), 1e-9) {
			return []core.Action{{I: c.i, J: c.j}}
		}
	}
	return nil
}
