// Package aa implements the paper's approximate algorithm AA (§IV-C): an
// RL-driven interactive regret query that never materializes the utility
// range exactly. It keeps only the set H of learned halfspaces, encodes each
// state with the LP-computed inner sphere and outer rectangle of R, selects
// candidate questions whose hyperplanes pass near the inner-sphere center,
// and stops once ‖e_min − e_max‖ ≤ 2√d·ε (Lemma 9: regret ≤ d²ε, and in
// practice below ε). This design scales to the high dimensionalities where
// polyhedron-maintaining algorithms are infeasible.
package aa

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"isrl/internal/core"
	"isrl/internal/dataset"
	"isrl/internal/geom"
	"isrl/internal/rl"
	"isrl/internal/trace"
	"isrl/internal/vec"
)

// Config collects AA's hyperparameters. Zero values select defaults matching
// the paper's §V settings via Defaults.
type Config struct {
	Mh          int // action-space size m_h (paper: 5)
	TopK        int // top points by center utility forming the main pair pool
	RandPairs   int // extra uniformly sampled pairs per round
	MaxLPChecks int // budget of two-sided feasibility probes per round
	MaxRounds   int // safety cap on interactive rounds
	RL          rl.Config

	// RandomActions is an ablation switch (DESIGN.md §5): candidate pairs
	// are taken in random order instead of nearest-to-center order.
	RandomActions bool
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.Mh == 0 {
		c.Mh = 5
	}
	if c.TopK == 0 {
		c.TopK = 20
	}
	if c.RandPairs == 0 {
		c.RandPairs = 100
	}
	if c.MaxLPChecks == 0 {
		c.MaxLPChecks = 60
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 400
	}
	c.RL = c.RL.Defaults()
	return c
}

// AA is the approximate RL interactive algorithm, bound to the dataset and
// threshold it was trained for.
type AA struct {
	cfg   Config
	ds    *dataset.Dataset
	eps   float64
	agent *rl.Agent
	rng   *rand.Rand
}

// New creates an untrained AA for ds and threshold eps. It panics on an
// empty dataset, dimensionality < 2, or a threshold outside (0,1).
func New(ds *dataset.Dataset, eps float64, cfg Config, rng *rand.Rand) *AA {
	if err := core.Validate(ds, eps); err != nil {
		panic("aa: " + err.Error())
	}
	cfg = cfg.Defaults()
	d := ds.Dim()
	stateDim := 3*d + 1 // inner center ⊕ radius ⊕ e_min ⊕ e_max
	actionDim := 2 * d
	return &AA{
		cfg:   cfg,
		ds:    ds,
		eps:   eps,
		agent: rl.NewAgent(stateDim, actionDim, cfg.RL, rng),
		rng:   rng,
	}
}

// Load restores an AA whose agent was serialized with Agent().MarshalBinary.
// ds, eps and cfg must match the values used at training time; inputs New
// would reject are an error. Load takes one draw from rng to seed the AA's
// own generator (geom.NewRand) and keeps no reference to rng.
func Load(ds *dataset.Dataset, eps float64, cfg Config, blob []byte, rng *rand.Rand) (*AA, error) {
	if err := core.Validate(ds, eps); err != nil {
		return nil, fmt.Errorf("aa: load: %w", err)
	}
	cfg = cfg.Defaults()
	agent, err := rl.UnmarshalAgent(blob, cfg.RL)
	if err != nil {
		return nil, fmt.Errorf("aa: load: %w", err)
	}
	d := ds.Dim()
	if agent.StateDim != 3*d+1 || agent.ActionDim != 2*d {
		return nil, fmt.Errorf("aa: load: model dims (%d,%d) do not match dataset (%d,%d)",
			agent.StateDim, agent.ActionDim, 3*d+1, 2*d)
	}
	return &AA{cfg: cfg, ds: ds, eps: eps, agent: agent, rng: geom.NewRand(rng.Int63())}, nil
}

// Name implements core.Algorithm.
func (a *AA) Name() string { return "AA" }

// Agent exposes the underlying DQN.
func (a *AA) Agent() *rl.Agent { return a.agent }

// Config returns the resolved configuration.
func (a *AA) Config() Config { return a.cfg }

// loop binds AA to the shared interaction MDP.
func (a *AA) loop() core.Loop {
	return core.Loop{Env: a, DS: a.ds, Agent: a.agent, Rng: a.rng, MaxRounds: a.cfg.MaxRounds,
		CapReason: "round cap reached without the Lemma-9 stop"}
}

// Round implements core.Env: AA's MDP view from the halfspace set — the
// inner sphere and outer rectangle (state + stopping test) and the
// nearest-to-center candidate questions (action space). Both LPs run on the
// round-incremental engine's warm solvers; their optima agree with the
// from-scratch programs within LP tolerance.
//
// The state is center ⊕ radius ⊕ e_min ⊕ e_max. A terminal view names
// Algorithm 4's answer: the top point w.r.t. the rectangle midpoint.
func (a *AA) Round(ctx context.Context, geo *geom.Incremental, eps float64) (*core.Round, error) {
	d := a.ds.Dim()
	ball, err := geo.InnerBallCtx(ctx)
	if err != nil {
		// Empty range (noisy users): terminate without the Lemma-9 stop.
		return &core.Round{
			Terminal: true, Point: -1,
			Degraded: true, Reason: "utility range empty (contradictory answers)",
		}, nil
	}
	emin, emax, err := geo.OuterRectCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("aa: %w", err)
	}
	r := &core.Round{Center: ball.Center, Point: -1}
	r.State = make([]float64, 0, 3*d+1)
	r.State = append(r.State, ball.Center...)
	r.State = append(r.State, ball.Radius)
	r.State = append(r.State, emin...)
	r.State = append(r.State, emax...)
	if !core.RectStop(emin, emax, eps) {
		r.Actions = a.selectActions(ctx, geo, ball)
	}
	if len(r.Actions) == 0 {
		// Lemma 9's stop, or no hyperplane can strictly narrow R further and
		// more questions are pointless: answer with the midpoint estimate.
		r.Terminal = true
		r.Point = a.ds.TopPoint(vec.Mid(nil, emin, emax))
	}
	return r, nil
}

// Prune implements core.Env: redundant halfspaces are pruned every 8th
// round so the per-round LPs stay small on long interactions. The set
// representation is AA's only state, and reduction preserves R exactly.
func (a *AA) Prune(geo *geom.Incremental, rounds int) {
	if rounds%8 == 0 && len(geo.Halfspaces()) > 2*geo.Dim() {
		geo.Reduce()
	}
}

// cand is one pair of the candidate pool with its hyperplane's distance from
// the inner-sphere center.
type cand struct {
	i, j int
	dist float64
}

// poolScratch is selectActions' working set: the scores, the pool, its
// dedupe table and probe memo, and the normals. A call borrows one from
// scratchPool for its length, so an idle AA holds none of it.
type poolScratch struct {
	scores []float64
	top    []int
	cands  []cand
	seen   map[uint64]struct{}
	cuts   []int8    // 0 = unprobed, 1 = cuts both sides, 2 = no
	normal []float64 // the current pair's pᵢ − pⱼ
	units  []float64 // unit normals of the accepted actions, d each
}

var scratchPool = sync.Pool{New: func() any {
	return &poolScratch{seen: make(map[uint64]struct{})}
}}

// selectActions implements §IV-C's restricted action space: among a
// candidate pool (all pairs of the top-K points by center utility plus
// random pairs), keep the m_h pairs whose hyperplane is nearest the
// inner-sphere center and properly splits R (both sides non-empty — Lemma 8;
// certified by the inner ball or checked by LP).
func (a *AA) selectActions(ctx context.Context, geo *geom.Incremental, ball geom.Ball) []core.Action {
	_, sp := trace.Start(ctx, "aa.select_actions")
	sc := scratchPool.Get().(*poolScratch)
	defer scratchPool.Put(sc)
	n, d := a.ds.Len(), a.ds.Dim()
	center := ball.Center
	sc.scores = a.ds.Scores(center, slices.Grow(sc.scores[:0], n)[:n])
	sc.top = topK(sc.top[:0], sc.scores, a.cfg.TopK) // top-K points by utility at the center
	sc.normal = slices.Grow(sc.normal[:0], d)[:d]
	h := geom.Halfspace{Normal: sc.normal} // the pair at hand, built in place

	cands := sc.cands[:0]
	clear(sc.seen)
	add := func(i, j int) {
		if i == j {
			return
		}
		if i > j {
			i, j = j, i
		}
		key := uint64(i)<<32 | uint64(j)
		if _, dup := sc.seen[key]; dup {
			return
		}
		sc.seen[key] = struct{}{}
		// geom.NewHalfspace(pᵢ, pⱼ) and its Dist, computed in place: the
		// norm is at least 1e-12, so Dist's zero-norm branch cannot fire.
		vec.Sub(h.Normal, a.ds.Points[i], a.ds.Points[j])
		norm := vec.Norm(h.Normal)
		if norm < 1e-12 {
			return
		}
		dot := vec.Dot(h.Normal, center)
		if dot < 0 {
			dot = -dot
		}
		cands = append(cands, cand{i: i, j: j, dist: dot / norm})
	}
	top := sc.top
	for x := 0; x < len(top); x++ {
		for y := x + 1; y < len(top); y++ {
			add(top[x], top[y])
		}
	}
	for t := 0; t < a.cfg.RandPairs; t++ {
		add(a.rng.Intn(n), a.rng.Intn(n))
	}
	sc.cands = cands
	if a.cfg.RandomActions {
		a.rng.Shuffle(len(cands), func(x, y int) { cands[x], cands[y] = cands[y], cands[x] })
	} else {
		// sort.Slice's pdqsort from the same template, so ties keep their
		// order: the comparison is < on dist either way.
		slices.SortFunc(cands, func(x, y cand) int {
			switch {
			case x.dist < y.dist:
				return -1
			case y.dist < x.dist:
				return 1
			}
			return 0
		})
	}

	// Two-sided probes: the round's inner ball certifies most of them with
	// no LP (a hyperplane passing near the center cuts the ball, hence R),
	// the rest run on the engine's warm solver. The per-round memo keeps a
	// candidate probed at most once per round.
	sc.cuts = slices.Grow(sc.cuts[:0], len(cands))[:len(cands)]
	clear(sc.cuts)
	probe := func(ci int) bool { // h holds candidate ci's normal
		if sc.cuts[ci] == 0 {
			if geo.CutsBothSides(ball, h, 1e-9) {
				sc.cuts[ci] = 1
			} else {
				sc.cuts[ci] = 2
			}
		}
		return sc.cuts[ci] == 1
	}

	// Greedy fill with an angular-diversity filter: a pool of nearly
	// parallel hyperplanes would keep slicing the same direction and leave
	// the outer rectangle wide elsewhere, so candidates too parallel to an
	// already accepted cut are deferred to a second pass.
	out := make([]core.Action, 0, a.cfg.Mh)
	sc.units = slices.Grow(sc.units[:0], a.cfg.Mh*d)[:a.cfg.Mh*d]
	checks := 0
	accept := func(ci int, requireDiverse bool) bool {
		if len(out) >= a.cfg.Mh || checks >= a.cfg.MaxLPChecks {
			return false
		}
		c := cands[ci]
		pi, pj := a.ds.Points[c.i], a.ds.Points[c.j]
		vec.Sub(h.Normal, pi, pj)
		unit := sc.units[len(out)*d : (len(out)+1)*d]
		copy(unit, h.Normal)
		vec.Normalize(unit)
		if requireDiverse {
			for k := range out {
				cos := vec.Dot(unit, sc.units[k*d:(k+1)*d])
				if cos > 0.9 || cos < -0.9 {
					return true // skip, but keep scanning
				}
			}
		}
		checks++
		if !probe(ci) {
			return true
		}
		feat := make([]float64, 0, 2*len(pi))
		feat = append(feat, pi...)
		feat = append(feat, pj...)
		out = append(out, core.Action{I: c.i, J: c.j, Feat: feat})
		return true
	}
	for ci := range cands {
		if !accept(ci, true) {
			break
		}
	}
	if len(out) < a.cfg.Mh { // second pass without the diversity filter
		for ci, c := range cands {
			if slices.ContainsFunc(out, func(ac core.Action) bool { return ac.I == c.i && ac.J == c.j }) {
				continue // accepted by the first pass
			}
			if !accept(ci, false) {
				break
			}
		}
	}
	if sp != nil {
		sp.SetInt("candidates", int64(len(cands)))
		sp.SetInt("lp_checks", int64(checks))
		sp.SetInt("selected", int64(len(out)))
		sp.End()
	}
	return out
}

// topK appends the indices of the k highest scores to dst[:0], best first,
// breaking ties by ascending index, and returns it. It keeps the best k seen
// so far in order, so a score that cannot enter costs one comparison
// instead of a full sort.
func topK(dst []int, scores []float64, k int) []int {
	k = min(k, len(scores))
	top := dst[:0]
	if k <= 0 {
		return top
	}
	for i, s := range scores {
		if len(top) == k {
			if s <= scores[top[k-1]] {
				continue // not better than the worst kept, which has a lower index
			}
			top = top[:k-1]
		}
		p := len(top)
		top = append(top, i)
		for ; p > 0 && scores[top[p-1]] < s; p-- {
			top[p] = top[p-1]
		}
		top[p] = i
	}
	return top
}

// Train runs Algorithm 3 over the training utility vectors.
func (a *AA) Train(users [][]float64) (core.TrainStats, error) {
	stats, err := a.loop().Train(users, a.eps)
	if err != nil {
		return stats, fmt.Errorf("aa: %w", err)
	}
	return stats, nil
}

// Run implements core.Algorithm (Algorithm 4: inference). It returns the
// point with the highest utility w.r.t. the outer-rectangle midpoint once
// the stopping condition of Lemma 9 holds.
//
// Serving is fault-tolerant under core.Loop.Run's contract: geometry
// failures and ranges emptied by contradictory answers end the session with
// a best-effort Degraded result scored against the last healthy inner-sphere
// center.
func (a *AA) Run(ds *dataset.Dataset, user core.User, eps float64, obs core.Observer) (core.Result, error) {
	return a.RunContext(context.Background(), ds, user, eps, obs)
}

// RunContext implements core.ContextAlgorithm: Run with per-round tracing
// (see core.Loop.Run), the LP geometry and candidate selection appearing as
// children of each round.
func (a *AA) RunContext(ctx context.Context, ds *dataset.Dataset, user core.User, eps float64, obs core.Observer) (core.Result, error) {
	return a.loop().Run(ctx, ds, user, eps, obs)
}
