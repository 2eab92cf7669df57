// Package ea implements the paper's exact algorithm EA (§IV-B): an
// RL-driven interactive regret query that maintains the utility range R as
// an exact polytope, encodes each interaction state from R's extreme utility
// vectors and outer sphere, restricts the action space to pairs of
// terminal-polyhedron representatives, and trains a DQN to pick the question
// with the best long-term effect on the number of rounds.
package ea

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"isrl/internal/core"
	"isrl/internal/dataset"
	"isrl/internal/geom"
	"isrl/internal/rl"
	"isrl/internal/trace"
	"isrl/internal/vec"
)

// Config collects EA's hyperparameters. Zero values select the paper's §V
// settings via Defaults.
type Config struct {
	Me         int     // selected extreme utility vectors mₑ in the state
	Mh         int     // action-space size m_h (paper: 5)
	DEps       float64 // neighborhood radius d_ε of the greedy cover
	NumSamples int     // sampled utility vectors for terminal-polyhedron construction (Lemma 5)
	MaxRounds  int     // safety cap on interactive rounds
	RL         rl.Config

	// Resilient enables the error-tolerant mode of the paper's future work
	// (§VI): when contradictory answers empty the utility range, the least
	// consistent halfspaces are dropped (geom.RepairFeasibility) and the
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
	if c.DEps == 0 {
		c.DEps = 0.1
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
	validate("ea", ds, eps)
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

// validate panics with a clear message on unusable construction inputs.
func validate(pkg string, ds *dataset.Dataset, eps float64) {
	if ds == nil || ds.Len() == 0 {
		panic(fmt.Sprintf("%s: empty dataset", pkg))
	}
	if ds.Dim() < 2 {
		panic(fmt.Sprintf("%s: dimensionality %d < 2", pkg, ds.Dim()))
	}
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("%s: regret threshold %v outside (0,1)", pkg, eps))
	}
}

// Load restores an EA whose agent was serialized with Agent().MarshalBinary.
// ds, eps and cfg must match the values used at training time.
func Load(ds *dataset.Dataset, eps float64, cfg Config, blob []byte, rng *rand.Rand) (*EA, error) {
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
	return &EA{cfg: cfg, ds: ds, eps: eps, agent: agent, rng: rng}, nil
}

// Name implements core.Algorithm.
func (e *EA) Name() string { return "EA" }

// Agent exposes the underlying DQN (for serialization and ablations).
func (e *EA) Agent() *rl.Agent { return e.agent }

// Config returns the resolved configuration.
func (e *EA) Config() Config { return e.cfg }

// action is a candidate question: a pair of dataset indices plus its feature
// encoding for the Q-network.
type action struct {
	I, J int
	Feat []float64
}

// round captures everything EA derives from the current utility range.
type round struct {
	verts    [][]float64
	state    []float64
	actions  []action
	terminal bool
	stopIdx  int    // certified point when terminal (or best-effort fallback)
	degraded bool   // terminal without an ε-certificate (range collapsed)
	reason   string // why, when degraded
}

// computeRound derives the MDP view of the current utility range: the
// Lemma-6 terminal test, the two-part state vector, and the restricted
// action pool from terminal-polyhedron representatives. The vertex set is
// read through the round-incremental engine, which serves its maintained
// list (bit-identical to scratch enumeration) and rebuilds from scratch
// whenever it cannot vouch for it.
func (e *EA) computeRound(ctx context.Context, geo *geom.Incremental, eps float64) (*round, error) {
	poly := geo.P
	r := &round{stopIdx: -1}
	verts, err := geo.VerticesCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("ea: %w", err)
	}
	if len(verts) == 0 && e.cfg.Resilient && len(poly.Halfspaces) > 0 {
		// Contradictory answers emptied R: drop the least consistent
		// constraints and continue (§VI future work). The repair mutates the
		// polytope directly; the engine notices via the mutation generation
		// and resynchronizes on the re-read.
		poly.RepairFeasibility(0)
		if verts, err = geo.VerticesCtx(ctx); err != nil {
			return nil, fmt.Errorf("ea: %w", err)
		}
	}
	r.verts = verts
	if len(verts) == 0 {
		// Degenerate range (numerically empty — possible under noisy
		// answers). Terminate with the best point at the inner center.
		r.terminal = true
		r.degraded = true
		r.reason = "utility range empty (contradictory answers)"
		r.stopIdx = e.fallbackPoint(poly)
		r.state = e.encodeState(nil, geom.Ball{Center: make([]float64, poly.Dim)})
		return r, nil
	}
	vtops := e.ds.TopPoints(verts, nil)
	if idx := core.StoppablePoint(e.ds, verts, vtops, eps); idx >= 0 {
		r.terminal = true
		r.stopIdx = idx
		r.state = e.encodeState(verts, geom.EnclosingBall(verts, geom.EnclosingBallOptions{}))
		return r, nil
	}
	// State: greedy-covered extreme vectors + outer sphere (§IV-B state).
	ball := geom.EnclosingBall(verts, geom.EnclosingBallOptions{})
	r.state = e.encodeState(verts, ball)

	// Action pool: representatives p_T of terminal polyhedra constructed
	// from V = samples ∪ vertices. A utility vector's terminal polyhedron is
	// determined by its top-1 point, so distinct top indices enumerate the
	// constructed polyhedra (§IV-B action space).
	tops := map[int]bool{}
	for _, t := range vtops {
		tops[t] = true
	}
	if samples, err := poly.SampleCtx(ctx, e.rng, e.cfg.NumSamples, geom.SampleOptions{}); err == nil {
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
		r.terminal = true
		r.stopIdx = reps[0]
		return r, nil
	}
	r.actions = e.samplePairs(reps, verts)
	if len(r.actions) == 0 {
		// No candidate hyperplane cuts R strictly: the representatives tie
		// across the whole range; asking more questions cannot narrow it.
		// Return the representative with the best worst-case certificate.
		r.terminal = true
		r.stopIdx = e.bestRep(reps, verts)
	}
	return r, nil
}

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
func (e *EA) samplePairs(reps []int, verts [][]float64) []action {
	type pair struct{ i, j int }
	seen := map[pair]bool{}
	var out []action
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
		out = append(out, action{I: a, J: b, Feat: feat})
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
			chosen = geom.GreedyCover(verts, e.cfg.Me, e.cfg.DEps)
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

// fallbackPoint picks the best point available when the range degenerates:
// the top point w.r.t. the inner-ball center (or the simplex centroid).
func (e *EA) fallbackPoint(poly *geom.Polytope) int {
	center := geom.SimplexCentroid(poly.Dim)
	if ball, err := poly.InnerBallCtx(context.Background()); err == nil {
		center = ball.Center
	}
	return e.ds.TopPoint(center)
}

// safeRound is computeRound behind a panic-containment boundary: a panic in
// the LP/vertex machinery (degenerate polytope, injected fault) surfaces as
// an error the serving path can degrade on instead of a dead process.
func (e *EA) safeRound(ctx context.Context, geo *geom.Incremental, eps float64) (r *round, err error) {
	if perr := core.Guard(func() { r, err = e.computeRound(ctx, geo, eps) }); perr != nil {
		return nil, perr
	}
	return r, err
}

// vertexCentroid is the mean of the extreme vectors — a cheap interior
// estimate of R recorded every healthy round so a degraded termination can
// still score the dataset against the last non-empty range.
func vertexCentroid(verts [][]float64) []float64 {
	c := make([]float64, len(verts[0]))
	for _, v := range verts {
		vec.Add(c, c, v)
	}
	vec.Scale(c, 1/float64(len(verts)), c)
	return c
}

// TrainStats summarizes a training run.
type TrainStats struct {
	Episodes   int
	TotalSteps int
	AvgRounds  float64 // mean episode length over the last window
	FinalLoss  float64
	RL         rl.TrainStats // DQN-level telemetry (loss EMA, syncs, replay)
}

// Train runs Algorithm 1 over the given training utility vectors (one
// episode each), learning the Q-function. It may be called with vectors
// sampled uniformly from the utility space (the paper trains on 10,000).
func (e *EA) Train(users [][]float64) (TrainStats, error) {
	replay := rl.NewReplay(e.cfg.RL.ReplayCap)
	stats := TrainStats{Episodes: len(users)}
	var windowRounds, windowCount float64
	var epsilon float64
	for ep, u := range users {
		user := core.SimulatedUser{Utility: u}
		epsilon = e.agent.Config().Epsilon.At(ep)
		rounds, err := e.episode(user, epsilon, replay, nil)
		if err != nil {
			return stats, fmt.Errorf("ea: training episode %d: %w", ep, err)
		}
		stats.TotalSteps += rounds
		windowRounds += float64(rounds)
		windowCount++
		// One gradient step per environment step (standard DQN cadence;
		// the paper's Algorithm 1 batches once per episode, which learns
		// the same policy more slowly).
		if replay.Len() >= e.agent.Config().BatchSize {
			for k := 0; k < rounds; k++ {
				stats.FinalLoss = e.agent.TrainBatch(replay.Sample(e.rng, e.agent.Config().BatchSize))
			}
		}
	}
	if windowCount > 0 {
		stats.AvgRounds = windowRounds / windowCount
	}
	stats.RL = e.agent.Stats()
	stats.RL.Epsilon = epsilon
	stats.RL.ReplaySize = replay.Len()
	return stats, nil
}

// episode runs one full interaction. With a non-nil replay it records
// transitions (training); with epsilon 0 and nil replay it is pure greedy
// inference. It returns the number of rounds and feeds obs if non-nil.
func (e *EA) episode(user core.User, epsilon float64, replay *rl.Replay, obs core.Observer) (int, error) {
	ctx := context.Background()
	geo := geom.NewIncremental(geom.NewPolytope(e.ds.Dim()))
	cur, err := e.computeRound(ctx, geo, e.eps)
	if err != nil {
		return 0, err
	}
	rounds := 0
	for !cur.terminal && rounds < e.cfg.MaxRounds {
		if len(cur.actions) == 0 {
			break // defensive: nothing to ask
		}
		var ai int
		if replay != nil {
			ai = e.agent.SelectEpsGreedy(e.rng, cur.state, feats(cur.actions), epsilon)
		} else {
			ai = e.agent.BestCtx(context.Background(), cur.state, feats(cur.actions))
		}
		act := cur.actions[ai]
		pi, pj := e.ds.Points[act.I], e.ds.Points[act.J]
		var h geom.Halfspace
		if user.Prefer(pi, pj) {
			h = geom.NewHalfspace(pi, pj)
		} else {
			h = geom.NewHalfspace(pj, pi)
		}
		geo.AddCtx(ctx, h)
		geo.Reduce()
		rounds++
		if obs != nil {
			obs.Round(rounds, geo.P.Halfspaces)
		}
		next, err := e.computeRound(ctx, geo, e.eps)
		if err != nil {
			return rounds, err
		}
		if replay != nil {
			tr := rl.Transition{
				State:    cur.state,
				Action:   act.Feat,
				Next:     next.state,
				Terminal: next.terminal,
			}
			if next.terminal {
				tr.Reward = e.agent.Config().RewardC
			} else {
				tr.NextActions = feats(next.actions)
			}
			replay.Add(tr)
		}
		cur = next
	}
	return rounds, nil
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

func feats(actions []action) [][]float64 {
	fs := make([][]float64, len(actions))
	for i, a := range actions {
		fs[i] = a.Feat
	}
	return fs
}

// Run implements core.Algorithm (Algorithm 2: inference). The dataset must
// be the one the agent was trained on.
//
// Serving is fault-tolerant: a panic or error inside the per-round geometry
// (degenerate polytope, exhausted vertex budget, injected fault) and a
// utility range emptied by contradictory answers both end the session with a
// best-effort Degraded result — scored against the last non-empty range —
// instead of an error or a dead process. Only a dataset mismatch, which is a
// caller bug, still fails outright.
func (e *EA) Run(ds *dataset.Dataset, user core.User, eps float64, obs core.Observer) (core.Result, error) {
	return e.RunContext(context.Background(), ds, user, eps, obs)
}

// RunContext implements core.ContextAlgorithm: Run with per-round tracing.
// When ctx carries an active trace every interactive round is recorded as a
// "session.round" span — candidate count and degradation flags attached —
// with the geometry, scoring and oracle wait as children. With a plain
// context it is exactly Run.
func (e *EA) RunContext(ctx context.Context, ds *dataset.Dataset, user core.User, eps float64, obs core.Observer) (core.Result, error) {
	if ds != e.ds && (ds.Len() != e.ds.Len() || ds.Dim() != e.ds.Dim()) {
		return core.Result{}, core.ErrDatasetMismatch
	}
	savedEps := e.eps
	e.eps = eps
	defer func() { e.eps = savedEps }()

	geo := geom.NewIncremental(geom.NewPolytope(e.ds.Dim()))
	var lastCenter []float64
	var qas []core.QA
	rounds, recovered := 0, 0
	degrade := func(reason string) (core.Result, error) {
		res := core.BestEffortResult(e.ds, lastCenter, rounds, qas, reason)
		res.PanicsRecovered = recovered
		return res, nil
	}
	fail := func(err error) (core.Result, error) {
		var pe *core.PanicError
		if errors.As(err, &pe) {
			recovered++
		}
		return degrade(err.Error())
	}
	cur, err := e.safeRound(ctx, geo, eps)
	if err != nil {
		return fail(err)
	}
	for !cur.terminal && rounds < e.cfg.MaxRounds {
		if len(cur.verts) > 0 {
			lastCenter = vertexCentroid(cur.verts)
		}
		if len(cur.actions) == 0 {
			break
		}
		rctx, rsp := trace.Start(ctx, "session.round")
		if rsp != nil {
			rsp.SetInt("round", int64(rounds+1))
			rsp.SetInt("candidates", int64(len(cur.actions)))
		}
		ai := e.agent.BestCtx(rctx, cur.state, feats(cur.actions))
		act := cur.actions[ai]
		pi, pj := e.ds.Points[act.I], e.ds.Points[act.J]
		osp := trace.StartLeaf(rctx, "oracle.wait")
		prefI := user.Prefer(pi, pj)
		osp.End()
		var h geom.Halfspace
		if prefI {
			h = geom.NewHalfspace(pi, pj)
		} else {
			h = geom.NewHalfspace(pj, pi)
		}
		geo.AddCtx(rctx, h)
		geo.Reduce()
		rounds++
		qas = append(qas, core.QA{I: act.I, J: act.J, PreferredI: prefI})
		if obs != nil {
			obs.Round(rounds, geo.P.Halfspaces)
		}
		cur, err = e.safeRound(rctx, geo, eps)
		if rsp != nil {
			rsp.SetBool("error", err != nil)
			rsp.End()
		}
		if err != nil {
			return fail(err)
		}
	}
	if cur.degraded {
		return degrade(cur.reason)
	}
	if !cur.terminal && rounds >= e.cfg.MaxRounds {
		return degrade("round cap reached without ε-certificate")
	}
	idx := cur.stopIdx
	if idx < 0 {
		idx = e.fallbackPoint(geo.P)
	}
	return core.Result{
		PointIndex:      idx,
		Point:           e.ds.Points[idx],
		Rounds:          rounds,
		Trace:           qas,
		PanicsRecovered: recovered,
	}, nil
}
