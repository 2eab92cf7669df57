package geom

import (
	"context"
	"math/rand"

	"isrl/internal/lp"
	"isrl/internal/vec"
)

// ExtremePoints returns the indices of the points that are vertices of the
// convex hull of the input set. A point is a hull vertex exactly when it
// cannot be written as a convex combination of the other points, which is a
// linear feasibility problem — no explicit hull construction is needed, so
// this works in any dimension (the regime where quickhull-style algorithms
// blow up).
//
// UH-Simplex interacts with "extreme points of the convex hull" of the
// candidate set; this is the primitive behind that filter. Cost is one LP
// with n−1 variables per point, so callers cap n.
func ExtremePoints(points [][]float64) []int {
	n := len(points)
	if n == 0 {
		return nil
	}
	d := len(points[0])
	var out []int
	for i := 0; i < n; i++ {
		if isExtreme(points, i, d) {
			out = append(out, i)
		}
	}
	return out
}

func isExtreme(points [][]float64, i, d int) bool {
	n := len(points)
	if n == 1 {
		return true
	}
	// Feasibility: ∃λ ≥ 0, Σλ = 1, Σ λ_j p_j = p_i over j ≠ i.
	// Infeasible ⇒ p_i is extreme.
	m := n - 1
	prob := &lp.Problem{NumVars: m, Maximize: make([]float64, m)}
	ones := make([]float64, m)
	for j := range ones {
		ones[j] = 1
	}
	prob.AddEQ(ones, 1)
	for k := 0; k < d; k++ {
		row := make([]float64, m)
		col := 0
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			row[col] = points[j][k]
			col++
		}
		prob.AddEQ(row, points[i][k])
	}
	res := solveLP(context.Background(), prob)
	return res.Status != lp.Optimal
}

// EstimateVolume returns the fraction of the utility space U covered by R,
// estimated with n uniform simplex samples. This Monte-Carlo fraction is the
// quantity behind the paper's Lemma 5: the number of samples landing in a
// sub-polytope tracks its volume share. The error is O(1/√n).
func (p *Polytope) EstimateVolume(rng *rand.Rand, n int) float64 {
	if n <= 0 {
		n = 1000
	}
	in := 0
	for i := 0; i < n; i++ {
		u := SampleSimplex(rng, p.Dim)
		inside := true
		for _, h := range p.Halfspaces {
			if vec.Dot(h.Normal, u) < 0 {
				inside = false
				break
			}
		}
		if inside {
			in++
		}
	}
	return float64(in) / float64(n)
}
