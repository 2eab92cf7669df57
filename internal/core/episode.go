package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"isrl/internal/dataset"
	"isrl/internal/geom"
	"isrl/internal/rl"
	"isrl/internal/trace"
)

// Action is a candidate question ⟨p_I, p_J⟩ together with its feature
// encoding p_I ⊕ p_J for the Q-network.
type Action struct {
	I, J int
	Feat []float64
}

// Round is an algorithm's MDP view of the current utility range R: the state
// vector, the restricted action space and the outcome of the terminal test.
type Round struct {
	State    []float64
	Actions  []Action
	Terminal bool
	Degraded bool   // terminal without the algorithm's certificate (R collapsed)
	Reason   string // why, when Degraded

	// Center is an interior estimate of R, set on views that ask a
	// question, so a later degradation can still be scored against the last
	// non-empty range.
	Center []float64

	// Point is the dataset index a terminal view already certifies as the
	// answer, or −1 when Env.Final derives it.
	Point int
}

// Env is an algorithm's side of the interaction loop: the three places where
// EA (§IV-B) and AA (§IV-C) differ. Everything else — choosing a question,
// asking it, applying the answer as a halfspace, recording replay — is the
// shared MDP episode of Loop.
type Env interface {
	// Round derives the MDP view of the utility range held by geo for the
	// regret threshold eps.
	Round(ctx context.Context, geo *geom.Incremental, eps float64) (*Round, error)
	// Prune runs after the answer to question number rounds was applied.
	Prune(geo *geom.Incremental, rounds int)
	// Final returns the answer of an episode that ended on the healthy view
	// last whose Point is −1.
	Final(geo *geom.Incremental, last *Round) int
}

// Loop is the interaction MDP of Algorithms 1–4, written once: it binds an
// Env to the dataset, DQN agent and random stream it trains and serves with.
// Training (Algorithms 1 and 3) and serving (Algorithms 2 and 4) run the same
// episode; training differs only in ε-greedy choice and replay recording.
type Loop struct {
	Env       Env
	DS        *dataset.Dataset
	Agent     *rl.Agent
	Rng       *rand.Rand
	MaxRounds int
	CapReason string // degradation reason when MaxRounds ends an episode early
}

// Trainable is an Algorithm driven by a DQN agent that Loop trains: EA and
// AA.
type Trainable interface {
	Algorithm
	Train(users [][]float64) (TrainStats, error)
	Agent() *rl.Agent
}

// Validate reports why ds and eps cannot host an interactive search: an
// empty dataset, fewer than two attributes, or a regret threshold outside
// (0,1). The error is unprefixed; callers name themselves.
func Validate(ds *dataset.Dataset, eps float64) error {
	if ds == nil || ds.Len() == 0 {
		return errors.New("empty dataset")
	}
	if ds.Dim() < 2 {
		return fmt.Errorf("dimensionality %d < 2", ds.Dim())
	}
	if eps <= 0 || eps >= 1 {
		return fmt.Errorf("regret threshold %v outside (0,1)", eps)
	}
	return nil
}

// TrainStats summarizes a training run.
type TrainStats struct {
	Episodes   int
	TotalSteps int
	AvgRounds  float64 // mean episode length
	FinalLoss  float64
	RL         rl.TrainStats // DQN-level telemetry (loss EMA, syncs, replay)
}

// Train runs Algorithms 1 and 3: one ε-greedy episode per training utility
// vector, every step recorded in the replay memory, learning the Q-function.
// A failed or panicking round aborts training with an error naming the
// episode.
func (l Loop) Train(users [][]float64, eps float64) (TrainStats, error) {
	cfg := l.Agent.Config()
	replay := rl.NewReplay(cfg.ReplayCap)
	stats := TrainStats{Episodes: len(users)}
	var epsilon float64
	for ep, u := range users {
		epsilon = cfg.Epsilon.At(ep)
		res, err := l.episode(context.Background(), SimulatedUser{Utility: u}, eps, nil, replay, epsilon)
		if err != nil {
			return stats, fmt.Errorf("training episode %d: %w", ep, err)
		}
		stats.TotalSteps += res.Rounds
		// One gradient step per environment step (standard DQN cadence; the
		// paper's Algorithm 1 batches once per episode, which learns the
		// same policy more slowly).
		if replay.Len() >= cfg.BatchSize {
			for k := 0; k < res.Rounds; k++ {
				stats.FinalLoss = l.Agent.TrainBatch(replay.Sample(l.Rng, cfg.BatchSize))
			}
		}
	}
	if len(users) > 0 {
		stats.AvgRounds = float64(stats.TotalSteps) / float64(len(users))
	}
	stats.RL = l.Agent.Stats()
	stats.RL.Epsilon = epsilon
	stats.RL.ReplaySize = replay.Len()
	return stats, nil
}

// Run serves one session (Algorithms 2 and 4) with the greedy policy.
//
// Serving is fault-tolerant: a panic or error inside a round's geometry
// (degenerate polytope, exhausted vertex budget, injected fault), a utility
// range emptied by contradictory answers and the round cap all end the
// session with a best-effort Degraded result scored against the last healthy
// center, instead of an error or a dead process. Only caller bugs fail
// outright: a dataset other than the training one (ErrDatasetMismatch) or a
// threshold outside (0,1).
//
// When ctx carries an active trace every interactive round is recorded as a
// "session.round" span — round number, candidate count and error flag
// attached — with the geometry, scoring and an "oracle.wait" leaf for the
// user's answer as children.
func (l Loop) Run(ctx context.Context, ds *dataset.Dataset, user User, eps float64, obs Observer) (Result, error) {
	if ds != l.DS && (ds.Len() != l.DS.Len() || ds.Dim() != l.DS.Dim()) {
		return Result{}, ErrDatasetMismatch
	}
	if err := Validate(ds, eps); err != nil {
		return Result{}, fmt.Errorf("core: %w", err)
	}
	return l.episode(ctx, user, eps, obs, nil, 0)
}

// episode runs one interaction from the full utility space. With a nil
// replay it serves: greedy choice, and failures degrade into a best-effort
// result. With a replay it trains: ε-greedy choice with probability epsilon,
// every step recorded in replay, and a failed round returned as the error;
// only Result.Rounds is meaningful then.
func (l Loop) episode(ctx context.Context, user User, eps float64, obs Observer, replay *rl.Replay, epsilon float64) (Result, error) {
	training := replay != nil
	geo := geom.NewIncremental(geom.NewPolytope(l.DS.Dim()))
	var lastCenter []float64
	var qas []QA
	rounds, recovered := 0, 0
	degrade := func(reason string) (Result, error) {
		res := BestEffortResult(l.DS, lastCenter, rounds, qas, reason)
		res.PanicsRecovered = recovered
		return res, nil
	}
	fail := func(err error) (Result, error) {
		if training {
			return Result{Rounds: rounds}, err
		}
		var pe *PanicError
		if errors.As(err, &pe) {
			recovered++
		}
		return degrade(err.Error())
	}
	cur, err := l.round(ctx, geo, eps)
	if err != nil {
		return fail(err)
	}
	for !cur.Terminal && rounds < l.MaxRounds && len(cur.Actions) > 0 {
		lastCenter = cur.Center
		rctx, rsp := trace.Start(ctx, "session.round")
		if rsp != nil {
			rsp.SetInt("round", int64(rounds+1))
			rsp.SetInt("candidates", int64(len(cur.Actions)))
		}
		var ai int
		if training {
			ai = l.Agent.SelectEpsGreedy(l.Rng, cur.State, feats(cur.Actions), epsilon)
		} else {
			ai = l.Agent.BestCtx(rctx, cur.State, feats(cur.Actions))
		}
		act := cur.Actions[ai]
		pi, pj := l.DS.Points[act.I], l.DS.Points[act.J]
		osp := trace.StartLeaf(rctx, "oracle.wait")
		prefI := user.Prefer(pi, pj)
		osp.End()
		if !prefI {
			pi, pj = pj, pi
		}
		geo.AddCtx(rctx, geom.NewHalfspace(pi, pj)) // the preferred side of the hyperplane
		rounds++
		l.Env.Prune(geo, rounds)
		qas = append(qas, QA{I: act.I, J: act.J, PreferredI: prefI})
		if obs != nil {
			obs.Round(rounds, geo.P.Halfspaces)
		}
		next, err := l.round(rctx, geo, eps)
		if rsp != nil {
			rsp.SetBool("error", err != nil)
			rsp.End()
		}
		if err != nil {
			return fail(err)
		}
		if training {
			tr := rl.Transition{State: cur.State, Action: act.Feat, Next: next.State, Terminal: next.Terminal}
			if next.Terminal {
				tr.Reward = l.Agent.Config().RewardC
			} else {
				tr.NextActions = feats(next.Actions)
			}
			replay.Add(tr)
		}
		cur = next
	}
	if training {
		return Result{Rounds: rounds}, nil
	}
	if cur.Degraded {
		return degrade(cur.Reason)
	}
	if !cur.Terminal && rounds >= l.MaxRounds {
		return degrade(l.CapReason)
	}
	idx := cur.Point
	if idx < 0 {
		idx = l.Env.Final(geo, cur)
	}
	return Result{
		PointIndex:      idx,
		Point:           l.DS.Points[idx],
		Rounds:          rounds,
		Trace:           qas,
		PanicsRecovered: recovered,
	}, nil
}

// round is Env.Round behind a panic-containment boundary: a panic in the
// LP/vertex machinery (degenerate polytope, injected fault) surfaces as an
// error the episode can degrade or abort on instead of a dead process.
func (l Loop) round(ctx context.Context, geo *geom.Incremental, eps float64) (r *Round, err error) {
	if perr := Guard(func() { r, err = l.Env.Round(ctx, geo, eps) }); perr != nil {
		return nil, perr
	}
	return r, err
}

func feats(actions []Action) [][]float64 {
	fs := make([][]float64, len(actions))
	for i, a := range actions {
		fs[i] = a.Feat
	}
	return fs
}
