// Package geom implements the computational geometry of the interactive
// regret query: the utility space (the probability simplex), hyperplanes
// induced by pairs of tuples, and the utility range — the polytope obtained
// by intersecting the simplex with the halfspaces learned from user answers.
//
// All geometry lives in the affine subspace Σu = 1 of R^d with u ≥ 0, as in
// the paper's §IV-A. Hyperplanes pass through the origin (they come from
// score comparisons u·(pᵢ−pⱼ) = 0), so each halfspace is stored as just its
// normal vector with the convention normal·u ≥ 0.
//
// Every algorithm reaches a utility range through one engine, Incremental:
// NewIncremental(d) builds U, AddCtx and Reduce (and Repair, for
// contradictory answers) mutate it, and VerticesCtx, InnerBallCtx,
// OuterRectCtx, CutsBothSides and SampleCtx read it, reusing state across
// rounds. The scratch primitives behind it stay unexported; ScratchVertices
// and ScratchRound expose them only so benchmarks can time the reads with
// no state kept.
package geom

import (
	"fmt"

	"isrl/internal/vec"
)

// Halfspace is the closed homogeneous halfspace {u : Normal·u ≥ 0}.
// For a question ⟨pᵢ,pⱼ⟩ answered "prefer pᵢ", Normal = pᵢ − pⱼ (Lemma 1).
type Halfspace struct {
	Normal []float64
}

// NewHalfspace builds the halfspace recording that a user prefers pi to pj.
func NewHalfspace(pi, pj []float64) Halfspace {
	return Halfspace{Normal: vec.Sub(nil, pi, pj)}
}

// Flip returns the opposite halfspace (the user preferred the other tuple).
func (h Halfspace) Flip() Halfspace {
	return Halfspace{Normal: vec.Scale(nil, -1, h.Normal)}
}

// Contains reports whether u satisfies Normal·u ≥ -tol.
func (h Halfspace) Contains(u []float64, tol float64) bool {
	return vec.Dot(h.Normal, u) >= -tol
}

// Dist returns the Euclidean distance from point c to the hyperplane
// {u : Normal·u = 0}: |Normal·c| / ‖Normal‖. A zero normal yields +Inf so a
// degenerate pair is never chosen as "closest to the center".
func (h Halfspace) Dist(c []float64) float64 {
	n := vec.Norm(h.Normal)
	if n == 0 {
		return inf
	}
	d := vec.Dot(h.Normal, c)
	if d < 0 {
		d = -d
	}
	return d / n
}

// String renders the halfspace inequality for debugging.
func (h Halfspace) String() string {
	return fmt.Sprintf("{u: %v·u >= 0}", h.Normal)
}

const inf = 1e308

// SimplexVertices returns the d corner points of the utility space
// U = {u ≥ 0, Σu = 1}: the standard basis vectors.
func SimplexVertices(d int) [][]float64 {
	vs := make([][]float64, d)
	for i := range vs {
		v := make([]float64, d)
		v[i] = 1
		vs[i] = v
	}
	return vs
}

// SimplexCentroid returns (1/d, ..., 1/d), the barycenter of U.
func SimplexCentroid(d int) []float64 {
	c := make([]float64, d)
	for i := range c {
		c[i] = 1 / float64(d)
	}
	return c
}
