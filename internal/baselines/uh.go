// Package baselines reimplements, from their published descriptions, every
// comparator the paper evaluates against: UH-Random and UH-Simplex (Xie,
// Wong & Lall, SIGMOD'19), SinglePass (Zhang, Tatti & Gionis, KDD'23), and
// the older fake-tuple baseline UtilityApprox (Nanongkai et al., SIGMOD'12)
// discussed in the related work. All are short-term algorithms: they pick
// each question considering only the current round, which is exactly the
// behaviour the paper's RL algorithms are designed to beat.
package baselines

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"isrl/internal/core"
	"isrl/internal/dataset"
	"isrl/internal/geom"
	"isrl/internal/vec"
)

// UHConfig tunes the UH family.
type UHConfig struct {
	MaxRounds int // safety cap (default 1000)
}

func (c UHConfig) defaults() UHConfig {
	if c.MaxRounds == 0 {
		c.MaxRounds = 1000
	}
	return c
}

// uhPairPool caps the candidate pairs a UH round evaluates.
const uhPairPool = 200

// UHRandom is the SIGMOD'19 random-pair algorithm: it keeps the candidate
// set of points still able to be top-1 somewhere in the utility range and
// asks a uniformly random candidate pair each round. The polytope is
// maintained exactly, so like EA it is restricted to low dimensionality.
type UHRandom struct {
	cfg UHConfig
	rng *rand.Rand
}

// NewUHRandom returns the baseline with its own RNG.
func NewUHRandom(cfg UHConfig, rng *rand.Rand) *UHRandom {
	return &UHRandom{cfg: cfg.defaults(), rng: rng}
}

// Name implements core.Algorithm.
func (u *UHRandom) Name() string { return "UH-Random" }

// Run implements core.Algorithm.
func (u *UHRandom) Run(ds *dataset.Dataset, user core.User, eps float64, obs core.Observer) (core.Result, error) {
	return runUH(ds, user, eps, obs, u.cfg, u.rng, func(pairs [][2]int, verts [][]float64) [2]int {
		return pairs[u.rng.Intn(len(pairs))]
	})
}

// UHSimplex is the SIGMOD'19 greedy variant: among candidate pairs it picks
// the hyperplane that best balances the current vertex set of the utility
// range — the short-term expected-halving criterion.
type UHSimplex struct {
	cfg UHConfig
	rng *rand.Rand
}

// NewUHSimplex returns the baseline with its own RNG (used for candidate
// sampling only; selection is deterministic given the pool).
func NewUHSimplex(cfg UHConfig, rng *rand.Rand) *UHSimplex {
	return &UHSimplex{cfg: cfg.defaults(), rng: rng}
}

// Name implements core.Algorithm.
func (u *UHSimplex) Name() string { return "UH-Simplex" }

// Run implements core.Algorithm.
func (u *UHSimplex) Run(ds *dataset.Dataset, user core.User, eps float64, obs core.Observer) (core.Result, error) {
	return runUH(ds, user, eps, obs, u.cfg, u.rng, func(pairs [][2]int, verts [][]float64) [2]int {
		// The first pair with the smallest imbalance wins.
		best := pairs[0]
		bestScore := math.MaxInt32
		for _, pr := range pairs {
			w := vec.Sub(nil, ds.Points[pr[0]], ds.Points[pr[1]])
			pos, neg := 0, 0
			for _, v := range verts {
				s := vec.Dot(w, v)
				if s > 1e-9 {
					pos++
				} else if s < -1e-9 {
					neg++
				}
			}
			score := pos - neg
			if score < 0 {
				score = -score
			}
			if score < bestScore {
				bestScore, best = score, pr
			}
		}
		return best
	})
}

// runUH is the shared UH interaction loop: exact polytope maintenance on a
// geom.Incremental (vertices clipped per answer, not re-enumerated),
// candidate discovery from vertex top-1 points, Lemma-4 stopping.
func runUH(ds *dataset.Dataset, user core.User, eps float64, obs core.Observer, cfg UHConfig,
	rng *rand.Rand, pick func(pairs [][2]int, verts [][]float64) [2]int) (core.Result, error) {

	ds.BuildTopIndex()
	ctx := context.Background()
	d := ds.Dim()
	g := geom.NewIncremental(d)
	// Candidate set: initially every (skyline) point; pruned each round by
	// utility-range domination, as in the SIGMOD'19 algorithms.
	cands := make([]int, ds.Len())
	for i := range cands {
		cands[i] = i
	}
	var trace []core.QA
	rounds := 0
	degReason := ""
	for rounds < cfg.MaxRounds {
		verts, err := g.VerticesCtx(ctx)
		if err != nil {
			// Exhausted vertex budget or injected fault: degrade rather than
			// fail the whole session (core's shared contract).
			degReason = fmt.Sprintf("vertex enumeration failed: %v", err)
			break
		}
		if len(verts) == 0 {
			degReason = "utility range empty (contradictory answers)"
			break
		}
		vtops := ds.TopPoints(verts, nil)
		if idx := core.StoppablePoint(ds, verts, vtops, eps); idx >= 0 {
			return core.Result{PointIndex: idx, Point: ds.Points[idx], Rounds: rounds, Trace: trace}, nil
		}
		cands = pruneByTops(ds, cands, verts, vtops)
		pairs := cuttingPairs(ds, cands, verts, rng, uhPairPool)
		if len(pairs) == 0 {
			break
		}
		pr := pick(pairs, verts)
		pi, pj := ds.Points[pr[0]], ds.Points[pr[1]]
		prefI := user.Prefer(pi, pj)
		if prefI {
			g.AddCtx(ctx, geom.NewHalfspace(pi, pj))
		} else {
			g.AddCtx(ctx, geom.NewHalfspace(pj, pi))
		}
		g.Reduce()
		rounds++
		trace = append(trace, core.QA{I: pr[0], J: pr[1], PreferredI: prefI})
		if obs != nil {
			obs.Round(rounds, g.Halfspaces())
		}
	}
	if rounds >= cfg.MaxRounds && degReason == "" {
		degReason = "round cap reached without ε-certificate"
	}
	// Fallback: best point at the inner-ball center.
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

// pruneByTops drops candidates that are utility-dominated inside R by one of
// the current vertex-top points: if v·(p_t − p_c) ≥ 0 at every vertex v of R
// (strict somewhere), then by convexity p_t beats p_c everywhere in R and
// p_c can never be top-1 again — the SIGMOD'19 pruning rule. vtops[k] is
// the top-1 point of verts[k], shared with the round's stopping test.
func pruneByTops(ds *dataset.Dataset, cands []int, verts [][]float64, vtops []int) []int {
	tops := map[int]bool{}
	for _, t := range vtops {
		tops[t] = true
	}
	topIdx := make([]int, 0, len(tops))
	for i := range tops {
		topIdx = append(topIdx, i)
	}
	sort.Ints(topIdx) // map order is random; keep runs reproducible
	keep := cands[:0]
	for _, c := range cands {
		if !dominatedByTop(ds, c, topIdx, verts) {
			keep = append(keep, c)
		}
	}
	return keep
}

// dominatedByTop reports whether some top point t ≠ c satisfies
// v·(p_t − p_c) ≥ 0 at every vertex v, strictly at one.
func dominatedByTop(ds *dataset.Dataset, c int, topIdx []int, verts [][]float64) bool {
	for _, t := range topIdx {
		if t == c {
			continue
		}
		w := vec.Sub(nil, ds.Points[t], ds.Points[c])
		allGE, strict := true, false
		for _, v := range verts {
			s := vec.Dot(w, v)
			if s < -1e-12 {
				allGE = false
				break
			}
			if s > 1e-12 {
				strict = true
			}
		}
		if allGE && strict {
			return true
		}
	}
	return false
}

// cuttingPairs lists up to maxPairs candidate pairs whose hyperplane has
// vertices strictly on both sides (asking anything else cannot narrow R).
// When the full pair set is larger than maxPairs it is randomly subsampled.
func cuttingPairs(ds *dataset.Dataset, cands []int, verts [][]float64, rng *rand.Rand, maxPairs int) [][2]int {
	cuts := func(x, y int) bool {
		w := vec.Sub(nil, ds.Points[x], ds.Points[y])
		pos, neg := false, false
		for _, v := range verts {
			s := vec.Dot(w, v)
			if s > 1e-9 {
				pos = true
			} else if s < -1e-9 {
				neg = true
			}
			if pos && neg {
				return true
			}
		}
		return false
	}
	total := len(cands) * (len(cands) - 1) / 2
	var out [][2]int
	if total <= maxPairs {
		for x := 0; x < len(cands); x++ {
			for y := x + 1; y < len(cands); y++ {
				if cuts(cands[x], cands[y]) {
					out = append(out, [2]int{cands[x], cands[y]})
				}
			}
		}
		return out
	}
	seen := map[[2]int]bool{}
	for tries := 0; len(out) < maxPairs && tries < 20*maxPairs; tries++ {
		a, b := cands[rng.Intn(len(cands))], cands[rng.Intn(len(cands))]
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		if seen[key] {
			continue
		}
		seen[key] = true
		if cuts(a, b) {
			out = append(out, key)
		}
	}
	return out
}
