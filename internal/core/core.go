// Package core defines the interactive regret query shared by every
// algorithm in this repository: user oracles, the question/answer protocol,
// the Algorithm interface, and the geometric stopping predicates derived
// from the paper's Lemmas 1, 4 and 6.
//
// Problem (ISRL, §III): given a dataset D ⊂ (0,1]^d and a threshold ε,
// interact with a user holding a hidden linear utility vector u by pairwise
// questions until a point q ∈ D with regret ratio below ε w.r.t. u can be
// returned, asking as few questions as possible.
package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"isrl/internal/dataset"
	"isrl/internal/geom"
	"isrl/internal/obs"
	"isrl/internal/vec"
)

// User answers pairwise comparison questions. Prefer reports whether the
// user prefers pi over pj (ties resolve to pi, matching Algorithm 1 line 9).
type User interface {
	Prefer(pi, pj []float64) bool
}

// SimulatedUser is the oracle the paper's experiments use: answers are
// derived from a hidden utility vector.
type SimulatedUser struct {
	Utility []float64
}

// Prefer implements User.
func (u SimulatedUser) Prefer(pi, pj []float64) bool {
	return vec.Dot(u.Utility, pi) >= vec.Dot(u.Utility, pj)
}

// NoisyUser answers like SimulatedUser but flips each answer independently
// with probability FlipProb — the paper's future-work setting ("users make
// mistakes when answering questions").
type NoisyUser struct {
	Utility  []float64
	FlipProb float64
	Rng      *rand.Rand
}

// Prefer implements User.
func (u NoisyUser) Prefer(pi, pj []float64) bool {
	truth := vec.Dot(u.Utility, pi) >= vec.Dot(u.Utility, pj)
	if u.Rng.Float64() < u.FlipProb {
		return !truth
	}
	return truth
}

// UserFunc adapts a plain comparison function to the User interface.
type UserFunc func(pi, pj []float64) bool

// Prefer implements User.
func (f UserFunc) Prefer(pi, pj []float64) bool { return f(pi, pj) }

// MajorityUser wraps a (possibly unreliable) User and answers each
// comparison by asking it K times and taking the majority — the simplest
// noise-robust protocol for the paper's future-work setting. K should be
// odd; even values break ties toward the first tuple. The cost is K real
// questions per algorithmic round, which the ext-noise experiment accounts
// for.
type MajorityUser struct {
	Inner User
	K     int
}

// Prefer implements User.
func (m MajorityUser) Prefer(pi, pj []float64) bool {
	k := m.K
	if k < 1 {
		k = 1
	}
	votes := 0
	for i := 0; i < k; i++ {
		if m.Inner.Prefer(pi, pj) {
			votes++
		}
	}
	return 2*votes >= k
}

// RecordingUser wraps another User and keeps a transcript of every
// comparison it was asked, in order. Useful for auditing interactive
// sessions with real users, where the algorithm's own Trace only covers the
// questions it counts as rounds.
type RecordingUser struct {
	Inner User

	// Record holds one entry per Prefer call: the two tuples (cloned) and
	// the answer.
	Record []RecordedQA
}

// RecordedQA is one observed comparison.
type RecordedQA struct {
	Pi, Pj     []float64
	PreferredI bool
}

// Prefer implements User.
func (r *RecordingUser) Prefer(pi, pj []float64) bool {
	ans := r.Inner.Prefer(pi, pj)
	r.Record = append(r.Record, RecordedQA{
		Pi:         vec.Clone(pi),
		Pj:         vec.Clone(pj),
		PreferredI: ans,
	})
	return ans
}

// QA records one interactive round: the pair asked and the answer.
type QA struct {
	I, J       int  // indices into the dataset
	PreferredI bool // true when the user chose point I
}

// Result is an algorithm's outcome.
//
// Degraded results are the graceful-degradation contract shared by every
// algorithm: when contradictory (noisy) answers empty the utility range, or
// a numeric fault aborts a round, the algorithm still returns its best
// available tuple — scored against the last non-empty utility range it saw —
// with Degraded set instead of failing the whole session. Callers that need
// the ε-guarantee must check Degraded; callers that just need an answer (a
// web session with a real, fallible user) can use the point as-is.
type Result struct {
	PointIndex int       // index of the returned tuple
	Point      []float64 // the returned tuple
	Rounds     int       // number of questions asked
	Trace      []QA      // the full question/answer transcript

	Degraded        bool   // best-effort result; the ε-certificate does not hold
	DegradedReason  string // why the session degraded (empty range, numeric fault, ...)
	PanicsRecovered int    // panics contained by per-round Guard boundaries during the run
}

// Observer receives a snapshot after every interactive round: the round
// number (1-based) and the halfspaces learned so far. The experiment harness
// uses it to chart per-round progress (the paper's Figures 7–8). Observers
// must not retain the slice.
type Observer interface {
	Round(round int, halfspaces []geom.Halfspace)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(round int, halfspaces []geom.Halfspace)

// Round implements Observer.
func (f ObserverFunc) Round(round int, halfspaces []geom.Halfspace) { f(round, halfspaces) }

// Algorithm is an interactive regret-query algorithm. Run interacts with
// user over ds until it can return a point whose regret ratio (w.r.t. the
// user's hidden utility vector) is below eps. obs may be nil.
//
// Implementations assume ds is skyline-preprocessed (the experimental
// protocol shared by the paper and all prior work).
type Algorithm interface {
	Name() string
	Run(ds *dataset.Dataset, user User, eps float64, obs Observer) (Result, error)
}

// ContextAlgorithm is an Algorithm whose run accepts a context. The context
// carries values only — per-session tracing in particular — never
// cancellation: lifecycle still belongs to the session. NewSession
// type-asserts for this interface and prefers RunContext when present, so
// existing Algorithm implementations keep working unchanged.
type ContextAlgorithm interface {
	Algorithm
	RunContext(ctx context.Context, ds *dataset.Dataset, user User, eps float64, obs Observer) (Result, error)
}

// ErrDatasetMismatch is returned when a trained algorithm is run against a
// dataset other than the one it was trained on.
var ErrDatasetMismatch = fmt.Errorf("core: dataset differs from the training dataset")

// degradedSessions counts best-effort terminations across every algorithm.
var degradedSessions = obs.Default().Counter("core.sessions_degraded")

// BestEffortResult implements the shared degradation contract: score the
// dataset at center — the last utility estimate that was still backed by a
// non-empty range — and return its top point as a Degraded result. A nil
// center falls back to the simplex centroid, the zero-information prior.
func BestEffortResult(ds *dataset.Dataset, center []float64, rounds int, trace []QA, reason string) Result {
	if center == nil {
		center = geom.SimplexCentroid(ds.Dim())
	}
	degradedSessions.Inc()
	idx := ds.TopPoint(center)
	return Result{
		PointIndex:     idx,
		Point:          ds.Points[idx],
		Rounds:         rounds,
		Trace:          trace,
		Degraded:       true,
		DegradedReason: reason,
	}
}

// StoppablePoint implements the paper's terminal test (Lemma 4 + Lemma 6 via
// convexity): given the extreme utility vectors E of the current utility
// range R, it returns the index of a point p ∈ D with
//
//	e·p ≥ (1−ε)·max_q e·q   for every e ∈ E,
//
// which certifies regratio(p,u) ≤ ε for every u ∈ R (any u is a convex
// combination of E, and both sides are linear in u). Returns −1 when no
// point qualifies, i.e. R is not yet a terminal polyhedron.
//
// tops[k] must be ds.TopPoint(E[k]) — the caller computes the vertex tops
// once (ds.TopPoints) and reuses them, e.g. for its action pool.
func StoppablePoint(ds *dataset.Dataset, E [][]float64, tops []int, eps float64) int {
	if len(E) == 0 {
		return -1
	}
	// Per-vertex thresholds and distinct candidate tops (checked first: the
	// top-1 point of a vertex is the most likely certificate).
	thr := make([]float64, len(E))
	cands := make([]int, 0, len(E))
	for k, e := range E {
		ti := tops[k]
		thr[k] = (1 - eps) * vec.Dot(e, ds.Points[ti])
		if !slices.Contains(cands, ti) {
			cands = append(cands, ti)
		}
	}
	ok := func(pi int) bool {
		p := ds.Points[pi]
		for k, e := range E {
			if vec.Dot(e, p)+1e-12 < thr[k] {
				return false
			}
		}
		return true
	}
	for _, ti := range cands {
		if ok(ti) {
			return ti
		}
	}
	// Sweep every row, one block of vec.SIMDBlock rows at a time: each
	// vertex scores the block and drops the rows below its threshold, and
	// the next vertex runs only while a row survives. A row survives every
	// vertex exactly when ok passes it (the scores have vec.Dot's bits), so
	// the lowest survivor that is not a candidate is the row a row-by-row
	// sweep would return.
	var buf [vec.SIMDBlock]float64
	n := ds.Len()
	for lo := 0; lo < n; lo += len(buf) {
		scores := buf[:min(len(buf), n-lo)]
		alive := uint64(1)<<len(scores) - 1
		for k, e := range E {
			ds.ScoreRows(e, lo, scores)
			for j, s := range scores {
				if s+1e-12 < thr[k] {
					alive &^= 1 << j
				}
			}
			if alive == 0 {
				break
			}
		}
		for ; alive != 0; alive &= alive - 1 {
			if pi := lo + bits.TrailingZeros64(alive); !slices.Contains(cands, pi) {
				return pi
			}
		}
	}
	return -1
}

// MaxRegretOverVertices returns max over e ∈ E of regratio(p, e) — the
// certificate bound on p's regret anywhere in conv(E).
func MaxRegretOverVertices(ds *dataset.Dataset, E [][]float64, p []float64) float64 {
	var worst float64
	for _, e := range E {
		if rr := ds.RegretRatio(p, e); rr > worst {
			worst = rr
		}
	}
	return worst
}

// RectStop is the paper's AA stopping predicate (Lemma 9): interaction may
// stop once ‖e_min − e_max‖ ≤ 2√d·ε, returning the top point w.r.t. the
// rectangle midpoint, whose regret ratio is then at most d²ε.
func RectStop(emin, emax []float64, eps float64) bool {
	d := float64(len(emin))
	return vec.Dist(emin, emax) <= 2*math.Sqrt(d)*eps
}
