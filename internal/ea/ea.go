// Package ea implements the paper's exact algorithm EA (§IV-B): an
// RL-driven interactive regret query that maintains the utility range R as
// an exact polytope, encodes each interaction state from R's extreme utility
// vectors and outer sphere, restricts the action space to pairs of
// terminal-polyhedron representatives, and trains a DQN to pick the question
// with the best long-term effect on the number of rounds.
package ea

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"isrl/internal/core"
	"isrl/internal/dataset"
	"isrl/internal/geom"
	"isrl/internal/rl"
	"isrl/internal/vec"
)

// Config collects EA's hyperparameters. Zero values select the paper's §V
// settings via Defaults.
type Config struct {
	Me         int // selected extreme utility vectors mₑ in the state
	Mh         int // action-space size m_h (paper: 5)
	NumSamples int // sampled utility vectors for terminal-polyhedron construction (Lemma 5)
	MaxRounds  int // safety cap on interactive rounds
	RL         rl.Config

	// Resilient enables the error-tolerant mode of the paper's future work
	// (§VI): when contradictory answers empty the utility range, the least
	// consistent halfspaces are dropped (geom.Incremental.Repair) and the
	// interaction continues instead of terminating with a fallback point.
	Resilient bool

	// Ablation switches (see DESIGN.md §5). All default off.
	NoExtremeState bool // zero out the selected-extreme-vectors state part
	NoSphereState  bool // zero out the outer-sphere state part
	RandomCover    bool // replace greedy max-coverage with random selection
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.Me == 0 {
		c.Me = 5
	}
	if c.Mh == 0 {
		c.Mh = 5
	}
	if c.NumSamples == 0 {
		c.NumSamples = 64
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 200
	}
	c.RL = c.RL.Defaults()
	return c
}

// dEps is the neighborhood radius d_ε of the greedy cover that picks the
// state's extreme vectors.
const dEps = 0.1

// EA is the exact RL interactive algorithm, bound to the dataset and regret
// threshold it was trained for.
type EA struct {
	cfg   Config
	ds    *dataset.Dataset
	eps   float64
	agent *rl.Agent
	rng   *rand.Rand
}

// New creates an untrained EA for ds and threshold eps. rng drives
// exploration, sampling and network initialization. It panics on an empty
// dataset, dimensionality < 2, or a threshold outside (0,1) — construction
// errors a caller cannot meaningfully handle at run time.
func New(ds *dataset.Dataset, eps float64, cfg Config, rng *rand.Rand) *EA {
	if err := core.Validate(ds, eps); err != nil {
		panic("ea: " + err.Error())
	}
	ds.BuildTopIndex()
	cfg = cfg.Defaults()
	d := ds.Dim()
	stateDim := cfg.Me*d + d + 1 // mₑ vertices ⊕ sphere center ⊕ radius
	actionDim := 2 * d           // pᵢ ⊕ pⱼ
	return &EA{
		cfg:   cfg,
		ds:    ds,
		eps:   eps,
		agent: rl.NewAgent(stateDim, actionDim, cfg.RL, rng),
		rng:   rng,
	}
}

// Load restores an EA whose agent was serialized with Agent().MarshalBinary.
// ds, eps and cfg must match the values used at training time; inputs New
// would reject are an error. Load takes one draw from rng to seed the EA's
// own generator (geom.NewRand) and keeps no reference to rng.
func Load(ds *dataset.Dataset, eps float64, cfg Config, blob []byte, rng *rand.Rand) (*EA, error) {
	if err := core.Validate(ds, eps); err != nil {
		return nil, fmt.Errorf("ea: load: %w", err)
	}
	cfg = cfg.Defaults()
	agent, err := rl.UnmarshalAgent(blob, cfg.RL)
	if err != nil {
		return nil, fmt.Errorf("ea: load: %w", err)
	}
	d := ds.Dim()
	if agent.StateDim != cfg.Me*d+d+1 || agent.ActionDim != 2*d {
		return nil, fmt.Errorf("ea: load: model dims (%d,%d) do not match dataset/config (%d,%d)",
			agent.StateDim, agent.ActionDim, cfg.Me*d+d+1, 2*d)
	}
	ds.BuildTopIndex()
	return &EA{cfg: cfg, ds: ds, eps: eps, agent: agent, rng: geom.NewRand(rng.Int63())}, nil
}

// Name implements core.Algorithm.
func (e *EA) Name() string { return "EA" }

// Agent exposes the underlying DQN (for serialization and ablations).
func (e *EA) Agent() *rl.Agent { return e.agent }

// Config returns the resolved configuration.
func (e *EA) Config() Config { return e.cfg }

// loop binds EA to the shared interaction MDP.
func (e *EA) loop() core.Loop {
	return core.Loop{Env: e, DS: e.ds, Agent: e.agent, Rng: e.rng, MaxRounds: e.cfg.MaxRounds,
		CapReason: "round cap reached without ε-certificate"}
}

// Round implements core.Env: the MDP view of the current utility range —
// the Lemma-6 terminal test, the two-part state vector, and the restricted
// action pool from terminal-polyhedron representatives. The vertex set is
// read through the round-incremental engine, which serves its maintained
// list (bit-identical to scratch enumeration) and rebuilds from scratch
// whenever it cannot vouch for it.
func (e *EA) Round(ctx context.Context, geo *geom.Incremental, eps float64) (*core.Round, error) {
	r := &core.Round{Point: -1}
	verts, err := geo.VerticesCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("ea: %w", err)
	}
	if len(verts) == 0 && e.cfg.Resilient && len(geo.Halfspaces()) > 0 {
		// Contradictory answers emptied R: drop the least consistent
		// constraints and continue (§VI future work). The repair resets the
		// engine's state, so the re-read enumerates the repaired range.
		geo.Repair()
		if verts, err = geo.VerticesCtx(ctx); err != nil {
			return nil, fmt.Errorf("ea: %w", err)
		}
	}
	if len(verts) == 0 {
		// Degenerate range (numerically empty — possible under noisy
		// answers): terminate without a certificate.
		r.Terminal = true
		r.Degraded = true
		r.Reason = "utility range empty (contradictory answers)"
		r.State = e.encodeState(nil, geom.Ball{Center: make([]float64, geo.Dim())})
		return r, nil
	}
	vtops := e.ds.TopPoints(verts, nil)
	if idx := core.StoppablePoint(e.ds, verts, vtops, eps); idx >= 0 {
		r.Terminal = true
		r.Point = idx
		r.State = e.encodeState(verts, geom.EnclosingBall(verts, geom.EnclosingBallOptions{}))
		return r, nil
	}
	// State: greedy-covered extreme vectors + outer sphere (§IV-B state).
	ball := geom.EnclosingBall(verts, geom.EnclosingBallOptions{})
	r.State = e.encodeState(verts, ball)

	// Action pool: representatives p_T of terminal polyhedra constructed
	// from V = samples ∪ vertices. A utility vector's terminal polyhedron is
	// determined by its top-1 point, so distinct top indices enumerate the
	// constructed polyhedra (§IV-B action space).
	tops := map[int]bool{}
	for _, t := range vtops {
		tops[t] = true
	}
	if samples, err := geo.SampleCtx(ctx, e.rng, e.cfg.NumSamples); err == nil {
		for _, t := range e.ds.TopPoints(samples, nil) {
			tops[t] = true
		}
	}
	reps := make([]int, 0, len(tops))
	for i := range tops {
		reps = append(reps, i)
	}
	sort.Ints(reps) // map order is random; keep runs reproducible
	if len(reps) < 2 {
		// All of E shares one top-1 point ⇒ that point is optimal over all
		// of R (convexity) ⇒ the range is terminal for any ε ≥ 0.
		r.Terminal = true
		r.Point = reps[0]
		return r, nil
	}
	r.Actions = e.samplePairs(reps, verts)
	if len(r.Actions) == 0 {
		// No candidate hyperplane cuts R strictly: the representatives tie
		// across the whole range; asking more questions cannot narrow it.
		// Return the representative with the best worst-case certificate.
		r.Terminal = true
		r.Point = e.bestRep(reps, verts)
		return r, nil
	}
	r.Center = vertexCentroid(verts)
	return r, nil
}

// Prune implements core.Env: EA keeps R's halfspace set irredundant after
// every answer.
func (e *EA) Prune(geo *geom.Incremental, rounds int) { geo.Reduce() }

// bestRep picks the representative with the smallest worst-case regret over
// the vertex set.
func (e *EA) bestRep(reps []int, verts [][]float64) int {
	best, bi := 2.0, reps[0]
	for _, ri := range reps {
		if rr := core.MaxRegretOverVertices(e.ds, verts, e.ds.Points[ri]); rr < best {
			best, bi = rr, ri
		}
	}
	return bi
}

// samplePairs draws up to m_h distinct index pairs from reps whose
// hyperplane strictly cuts the current range (both sides hold vertices with
// margin — Lemma 7's strict-narrowing requirement, enforced numerically).
func (e *EA) samplePairs(reps []int, verts [][]float64) []core.Action {
	type pair struct{ i, j int }
	seen := map[pair]bool{}
	var out []core.Action
	maxPairs := len(reps) * (len(reps) - 1) / 2
	want := e.cfg.Mh
	if want > maxPairs {
		want = maxPairs
	}
	for tries := 0; len(out) < want && tries < 50*want; tries++ {
		a, b := reps[e.rng.Intn(len(reps))], reps[e.rng.Intn(len(reps))]
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if seen[pair{a, b}] {
			continue
		}
		seen[pair{a, b}] = true
		pi, pj := e.ds.Points[a], e.ds.Points[b]
		if vec.Dist(pi, pj) < 1e-12 {
			continue // identical tuples induce no hyperplane
		}
		if !cutsVertices(pi, pj, verts) {
			continue
		}
		feat := make([]float64, 0, 2*len(pi))
		feat = append(feat, pi...)
		feat = append(feat, pj...)
		out = append(out, core.Action{I: a, J: b, Feat: feat})
	}
	return out
}

// encodeState builds the fixed-length state vector of §IV-B: the mₑ
// greedy-cover representatives of the extreme utility vectors, zero-padded,
// concatenated with the outer sphere's center and radius.
func (e *EA) encodeState(verts [][]float64, ball geom.Ball) []float64 {
	d := e.ds.Dim()
	state := make([]float64, e.cfg.Me*d+d+1)
	if len(verts) > 0 && !e.cfg.NoExtremeState {
		var chosen []int
		if e.cfg.RandomCover {
			chosen = e.rng.Perm(len(verts))
			if len(chosen) > e.cfg.Me {
				chosen = chosen[:e.cfg.Me]
			}
		} else {
			chosen = geom.GreedyCover(verts, e.cfg.Me, dEps)
		}
		for k, vi := range chosen {
			copy(state[k*d:], verts[vi])
		}
	}
	if !e.cfg.NoSphereState {
		copy(state[e.cfg.Me*d:], ball.Center)
		state[e.cfg.Me*d+d] = ball.Radius
	}
	return state
}

// vertexCentroid is the mean of the extreme vectors — a cheap interior
// estimate of R that a degraded termination scores the dataset against.
func vertexCentroid(verts [][]float64) []float64 {
	c := make([]float64, len(verts[0]))
	for _, v := range verts {
		vec.Add(c, c, v)
	}
	vec.Scale(c, 1/float64(len(verts)), c)
	return c
}

// Train runs Algorithm 1 over the given training utility vectors (one
// episode each), learning the Q-function. It may be called with vectors
// sampled uniformly from the utility space (the paper trains on 10,000).
func (e *EA) Train(users [][]float64) (core.TrainStats, error) {
	stats, err := e.loop().Train(users, e.eps)
	if err != nil {
		return stats, fmt.Errorf("ea: %w", err)
	}
	return stats, nil
}

// cutsVertices reports whether the hyperplane of the pair ⟨pi,pj⟩ has
// vertices strictly on both sides, so either answer shrinks R.
func cutsVertices(pi, pj []float64, verts [][]float64) bool {
	const tol = 1e-9
	w := vec.Sub(nil, pi, pj)
	pos, neg := false, false
	for _, v := range verts {
		s := vec.Dot(w, v)
		if s > tol {
			pos = true
		} else if s < -tol {
			neg = true
		}
		if pos && neg {
			return true
		}
	}
	return false
}

// Run implements core.Algorithm (Algorithm 2: inference). The dataset must
// be the one the agent was trained on.
//
// Serving is fault-tolerant under core.Loop.Run's contract: geometry
// failures and ranges emptied by contradictory answers end the session with
// a best-effort Degraded result scored against the last vertex centroid.
func (e *EA) Run(ds *dataset.Dataset, user core.User, eps float64, obs core.Observer) (core.Result, error) {
	return e.RunContext(context.Background(), ds, user, eps, obs)
}

// RunContext implements core.ContextAlgorithm: Run with per-round tracing
// (see core.Loop.Run). With a plain context it is exactly Run.
func (e *EA) RunContext(ctx context.Context, ds *dataset.Dataset, user core.User, eps float64, obs core.Observer) (core.Result, error) {
	return e.loop().Run(ctx, ds, user, eps, obs)
}
