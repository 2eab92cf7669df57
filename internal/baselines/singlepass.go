package baselines

import (
	"math/rand"

	"isrl/internal/core"
	"isrl/internal/dataset"
	"isrl/internal/geom"
	"isrl/internal/vec"
)

// SinglePassConfig tunes the streaming baseline.
type SinglePassConfig struct {
	MaxRounds int // cap, default 5000
}

const (
	// spParticles is the size of the utility-vector particle set that
	// approximates the learned range for the skip filter.
	spParticles = 128
	// spStopCheckEvery is how many questions pass between runs of the
	// ε-coverage termination test.
	spStopCheckEvery = 25
	// spCoverSample is how many dataset points the termination test
	// samples.
	spCoverSample = 200
)

func (c SinglePassConfig) defaults() SinglePassConfig {
	if c.MaxRounds == 0 {
		c.MaxRounds = 5000
	}
	return c
}

// SinglePass reimplements the KDD'23 streaming baseline: it walks the
// dataset exactly once in a fixed random order keeping a current champion,
// and compares each arriving point against the champion unless rule-based
// filters prove the question unnecessary. The filters are pareto dominance
// and an ε-slack test on the learned utility range: a challenger q is worth
// asking about only if some utility vector consistent with all answers so
// far gives it more than (1−ε) times the champion's utility — otherwise the
// champion already ε-covers it. The consistent set is approximated by a
// particle cloud, so every step is a handful of dot products and the
// algorithm runs in any dimension.
//
// Because it never *selects* questions — the stream order decides — its
// question count is large and only mildly sensitive to ε: the behaviour the
// paper reports (e.g. 727 questions on Player, barely reacting to the
// threshold).
type SinglePass struct {
	cfg SinglePassConfig
	rng *rand.Rand
}

// NewSinglePass returns the baseline with its own RNG (the random sequence
// is part of the algorithm's definition).
func NewSinglePass(cfg SinglePassConfig, rng *rand.Rand) *SinglePass {
	return &SinglePass{cfg: cfg.defaults(), rng: rng}
}

// Name implements core.Algorithm.
func (s *SinglePass) Name() string { return "SinglePass" }

// Run implements core.Algorithm.
func (s *SinglePass) Run(ds *dataset.Dataset, user core.User, eps float64, obs core.Observer) (core.Result, error) {
	d := ds.Dim()
	order := s.rng.Perm(ds.Len())
	champion := order[0]
	var halfspaces []geom.Halfspace
	particles := make([][]float64, spParticles)
	for i := range particles {
		particles[i] = geom.SampleSimplex(s.rng, d)
	}
	var trace []core.QA
	rounds := 0

	for _, qi := range order[1:] {
		if rounds >= s.cfg.MaxRounds {
			break
		}
		q, b := ds.Points[qi], ds.Points[champion]
		// Filter 1: pareto dominance decides without asking.
		if dataset.Dominates(b, q) {
			continue
		}
		if dataset.Dominates(q, b) {
			champion = qi
			continue
		}
		// Filter 2: skip only certain losers — no utility vector consistent
		// with the answers so far lets q beat the champion. The published
		// algorithm's filters are similarly conservative (they must be, to
		// keep its guarantee), which is why its question counts run into
		// the hundreds.
		if len(particles) > 0 {
			canWin := false
			for _, u := range particles {
				if vec.Dot(u, q) > vec.Dot(u, b) {
					canWin = true
					break
				}
			}
			if !canWin {
				continue
			}
		}
		prefQ := user.Prefer(q, b)
		opponent := champion
		var h geom.Halfspace
		if prefQ {
			h = geom.NewHalfspace(q, b)
			champion = qi
		} else {
			h = geom.NewHalfspace(b, q)
		}
		halfspaces = append(halfspaces, h)
		particles = s.updateParticles(particles, halfspaces, h)
		rounds++
		trace = append(trace, core.QA{I: qi, J: opponent, PreferredI: prefQ})
		if obs != nil {
			obs.Round(rounds, halfspaces)
		}
		// Periodic ε-termination: once the champion ε-covers a random
		// sample of the dataset under every utility vector still
		// consistent with the answers, further questions cannot improve
		// the ε-guarantee. A healthy particle cloud is required so the
		// consistent set is represented; larger ε stops earlier — the
		// published algorithm's mild ε-sensitivity.
		if rounds%spStopCheckEvery == 0 && len(particles) >= spParticles/2 {
			if s.championCovers(ds, ds.Points[champion], particles, eps) {
				break
			}
		}
	}
	return core.Result{
		PointIndex: champion,
		Point:      ds.Points[champion],
		Rounds:     rounds,
		Trace:      trace,
	}, nil
}

// championCovers reports whether the champion b ε-covers a random sample of
// the dataset under every particle: u·b ≥ (1−ε)·u·q for all sampled q and
// all consistent u.
func (s *SinglePass) championCovers(ds *dataset.Dataset, b []float64, particles [][]float64, eps float64) bool {
	n := ds.Len()
	for k := 0; k < min(spCoverSample, n); k++ {
		q := ds.Points[s.rng.Intn(n)]
		for _, u := range particles {
			if vec.Dot(u, b) < (1-eps)*vec.Dot(u, q) {
				return false
			}
		}
	}
	return true
}

// updateParticles discards particles violating the newest halfspace and
// replenishes the cloud by jittering survivors and occasionally trying
// fresh global samples, rejection-tested against the full halfspace set, so
// the approximation tracks the shrinking range.
func (s *SinglePass) updateParticles(particles [][]float64, halfspaces []geom.Halfspace, newest geom.Halfspace) [][]float64 {
	kept := particles[:0]
	for _, u := range particles {
		if newest.Contains(u, 0) {
			kept = append(kept, u)
		}
	}
	if len(kept) == 0 {
		return kept
	}
	want := spParticles
	d := len(kept[0])
	// Replenished particles are rejection-tested against a window of the
	// most recent halfspaces (plus whatever killed their siblings): testing
	// against the full history would make long streams quadratic, and the
	// recent constraints dominate the current range anyway. Jittered
	// children of surviving particles rarely violate old constraints.
	window := halfspaces
	const maxWindow = 128
	if len(window) > maxWindow {
		window = window[len(window)-maxWindow:]
	}
	consistent := func(u []float64) bool {
		for _, h := range window {
			if !h.Contains(u, 0) {
				return false
			}
		}
		return true
	}
	for tries := 0; len(kept) < want && tries < 6*want; tries++ {
		var cand []float64
		if tries%4 == 3 {
			cand = geom.SampleSimplex(s.rng, d)
		} else {
			base := kept[s.rng.Intn(len(kept))]
			cand = make([]float64, d)
			var sum float64
			for i := range cand {
				v := base[i] * (0.5 + s.rng.Float64())
				cand[i] = v
				sum += v
			}
			for i := range cand {
				cand[i] /= sum
			}
		}
		if consistent(cand) {
			kept = append(kept, cand)
		}
	}
	return kept
}
