package geom

import (
	"context"
	"errors"
	"fmt"
	"math"

	"isrl/internal/lp"
	"isrl/internal/trace"
	"isrl/internal/vec"
)

// Polytope is a utility range R = U ∩ ⋂ₖ {wₖ·u ≥ 0}: the probability simplex
// intersected with the homogeneous halfspaces accumulated during interaction.
// The zero value is unusable; construct with NewPolytope.
type Polytope struct {
	Dim        int
	Halfspaces []Halfspace

	// vertsDirty marks the cached vertex set stale.
	verts      [][]float64
	vertsDirty bool

	// Mutation generations, read by the round-incremental engine to detect
	// changes made behind its back: gen counts every structural mutation,
	// grow only those that may enlarge R (halfspace drops during feasibility
	// repair) — the ones that invalidate the outer-rectangle witnesses.
	gen  uint64
	grow uint64
}

// NewPolytope returns the full utility space U in d dimensions.
func NewPolytope(d int) *Polytope {
	if d < 2 {
		panic(fmt.Sprintf("geom: polytope dimension %d < 2", d))
	}
	return &Polytope{Dim: d, vertsDirty: true}
}

// Clone returns a deep copy of p (vertex cache included).
func (p *Polytope) Clone() *Polytope {
	c := &Polytope{Dim: p.Dim, vertsDirty: p.vertsDirty, gen: p.gen, grow: p.grow}
	c.Halfspaces = make([]Halfspace, len(p.Halfspaces))
	for i, h := range p.Halfspaces {
		c.Halfspaces[i] = Halfspace{Normal: vec.Clone(h.Normal)}
	}
	if p.verts != nil {
		c.verts = make([][]float64, len(p.verts))
		for i, v := range p.verts {
			c.verts[i] = vec.Clone(v)
		}
	}
	return c
}

// Add intersects p with h.
func (p *Polytope) Add(h Halfspace) {
	if len(h.Normal) != p.Dim {
		panic(fmt.Sprintf("geom: halfspace dim %d, polytope dim %d", len(h.Normal), p.Dim))
	}
	p.Halfspaces = append(p.Halfspaces, h)
	p.vertsDirty = true
	p.gen++
}

// Contains reports whether u lies in R within tol.
func (p *Polytope) Contains(u []float64, tol float64) bool {
	if len(u) != p.Dim {
		return false
	}
	var s float64
	for _, ui := range u {
		if ui < -tol {
			return false
		}
		s += ui
	}
	if s < 1-1e-6 || s > 1+1e-6 {
		return false
	}
	for _, h := range p.Halfspaces {
		if !h.Contains(u, tol) {
			return false
		}
	}
	return true
}

// baseProblem returns an LP skeleton with u ∈ U and all halfspace rows, plus
// room for extra variables appended after the d utility coordinates.
func (p *Polytope) baseProblem(extraVars int) *lp.Problem {
	d := p.Dim
	prob := &lp.Problem{NumVars: d + extraVars, Maximize: make([]float64, d+extraVars)}
	ones := make([]float64, d+extraVars)
	for i := 0; i < d; i++ {
		ones[i] = 1
	}
	prob.AddEQ(ones, 1)
	for _, h := range p.Halfspaces {
		row := make([]float64, d+extraVars)
		copy(row, h.Normal)
		prob.AddGE(row, 0)
	}
	return prob
}

// IsEmpty reports whether R has no point (within LP tolerance).
func (p *Polytope) IsEmpty() bool {
	prob := p.baseProblem(0)
	return solveLP(context.Background(), prob).Status != lp.Optimal
}

// InteriorSlack maximizes the smallest halfspace slack min_k wₖ·u over u ∈ U
// and returns the optimum with its maximizer. A positive slack certifies a
// full-dimensional intersection with every halfspace strict; a negative one
// means R is empty. This is the paper's "maximize x subject to w·u > x"
// feasibility probe from §IV-C.
func (p *Polytope) InteriorSlack() (slack float64, u []float64, ok bool) {
	d := p.Dim
	prob := &lp.Problem{NumVars: d + 1, Maximize: make([]float64, d+1)}
	prob.Maximize[d] = 1
	prob.Free = make([]bool, d+1)
	prob.Free[d] = true // slack may be negative
	ones := make([]float64, d+1)
	for i := 0; i < d; i++ {
		ones[i] = 1
	}
	prob.AddEQ(ones, 1)
	for _, h := range p.Halfspaces {
		row := make([]float64, d+1)
		copy(row, h.Normal)
		// w·u − x ≥ 0  ⇔  w·u ≥ x
		row[d] = -1
		prob.AddGE(row, 0)
	}
	// Bound x from above so the LP stays bounded when there are no
	// halfspaces: x ≤ 1 (any constant works; slacks on U are ≤ ‖w‖ anyway).
	bound := make([]float64, d+1)
	bound[d] = 1
	prob.AddLE(bound, 1)
	res := solveLP(context.Background(), prob)
	if res.Status != lp.Optimal {
		return 0, nil, false
	}
	return res.Objective, res.X[:d], true
}

// CutsBothSides reports whether the hyperplane of h properly splits R: both
// R∩{w·u ≥ margin} and R∩{−w·u ≥ margin} are non-empty. margin > 0 demands a
// full-dimensional piece on each side (Lemma 8's strict-narrowing condition).
func (p *Polytope) CutsBothSides(h Halfspace, margin float64) bool {
	return p.sideFeasible(h.Normal, margin) && p.sideFeasible(vec.Scale(nil, -1, h.Normal), margin)
}

func (p *Polytope) sideFeasible(w []float64, margin float64) bool {
	prob := p.baseProblem(0)
	copy(prob.Maximize, w)
	res := solveLP(context.Background(), prob)
	return res.Status == lp.Optimal && res.Objective > margin
}

// OuterRect returns e_min and e_max, the per-dimension extrema of u over R,
// computed with 2d LPs (paper §IV-C). It fails when R is empty.
func (p *Polytope) OuterRect() (emin, emax []float64, err error) {
	d := p.Dim
	emin = make([]float64, d)
	emax = make([]float64, d)
	prob := p.baseProblem(0)
	for i := 0; i < d; i++ {
		vec.Fill(prob.Maximize, 0)
		prob.Maximize[i] = 1
		res := solveLP(context.Background(), prob)
		if res.Status != lp.Optimal {
			return nil, nil, fmt.Errorf("geom: outer rect max dim %d: %v", i, res.Status)
		}
		emax[i] = res.Objective
		prob.Maximize[i] = -1
		res = solveLP(context.Background(), prob)
		if res.Status != lp.Optimal {
			return nil, nil, fmt.Errorf("geom: outer rect min dim %d: %v", i, res.Status)
		}
		emin[i] = -res.Objective
	}
	return emin, emax, nil
}

// Ball is a sphere given by center and radius.
type Ball struct {
	Center []float64
	Radius float64
}

// InnerBallCtx computes the largest sphere centered in R that fits inside
// every learned halfspace and inside the non-negativity facets of U — the
// paper's inner-sphere LP from §IV-C (the Chebyshev center of R restricted
// to the simplex). It fails when R is empty. The LP is wrapped in a
// "geom.inner_ball" span when ctx carries an active trace.
func (p *Polytope) InnerBallCtx(ctx context.Context) (Ball, error) {
	ctx, sp := trace.Start(ctx, "geom.inner_ball")
	defer sp.End()
	res := solveLP(ctx, p.innerBallProblem())
	if res.Status != lp.Optimal {
		return Ball{}, fmt.Errorf("geom: inner ball: %v", res.Status)
	}
	return Ball{Center: res.X[:p.Dim], Radius: res.Objective}, nil
}

// innerBallProblem builds the Chebyshev-center LP over R ∩ U with variables
// (c₀..c_{d−1}, r). Shared by the from-scratch solve and the warm solver so
// both paths assemble bit-identical tableaus.
func (p *Polytope) innerBallProblem() *lp.Problem {
	d := p.Dim
	prob := &lp.Problem{NumVars: d + 1, Maximize: make([]float64, d+1)}
	prob.Maximize[d] = 1 // maximize radius r
	ones := make([]float64, d+1)
	for i := 0; i < d; i++ {
		ones[i] = 1
	}
	prob.AddEQ(ones, 1)
	// Distance from c to facet uᵢ = 0 is cᵢ: cᵢ − r ≥ 0.
	for i := 0; i < d; i++ {
		row := make([]float64, d+1)
		row[i] = 1
		row[d] = -1
		prob.AddGE(row, 0)
	}
	for _, h := range p.Halfspaces {
		if row, ok := innerBallRow(h, d); ok {
			prob.AddGE(row, 0)
		}
	}
	return prob
}

// innerBallRow converts a halfspace into its normalized Chebyshev row
// w·c/‖w‖ − r ≥ 0, or reports ok=false for a zero normal (no constraint).
func innerBallRow(h Halfspace, d int) ([]float64, bool) {
	n := vec.Norm(h.Normal)
	if n == 0 {
		return nil, false
	}
	row := make([]float64, d+1)
	for j, wj := range h.Normal {
		row[j] = wj / n
	}
	row[d] = -1 // w·c/‖w‖ − r ≥ 0
	return row, true
}

// ErrEmpty reports an operation on an empty utility range.
var ErrEmpty = errors.New("geom: empty polytope")

// RepairFeasibility restores a non-empty interior to R by greedily removing
// halfspaces: while the interior slack is non-positive, it drops the
// halfspace whose removal recovers the most slack. This implements the
// error-tolerant interaction of the paper's future work (§VI): when a user's
// answers contradict each other the learned constraints cannot all hold, so
// the least-consistent ones are discarded. Returns the number of halfspaces
// removed (0 when R was already full-dimensional); maxDrops ≤ 0 means
// unlimited.
func (p *Polytope) RepairFeasibility(maxDrops int) int {
	removed := 0
	for {
		slack, _, ok := p.InteriorSlack()
		if ok && slack > 1e-9 {
			return removed
		}
		if len(p.Halfspaces) == 0 || (maxDrops > 0 && removed >= maxDrops) {
			return removed
		}
		bestIdx, bestSlack := -1, math.Inf(-1)
		rest := make([]Halfspace, 0, len(p.Halfspaces)-1)
		for i := range p.Halfspaces {
			rest = append(rest[:0], p.Halfspaces[:i]...)
			rest = append(rest, p.Halfspaces[i+1:]...)
			q := &Polytope{Dim: p.Dim, Halfspaces: rest}
			if s, _, ok := q.InteriorSlack(); ok && s > bestSlack {
				bestSlack, bestIdx = s, i
			}
		}
		if bestIdx < 0 {
			return removed
		}
		p.Halfspaces = append(p.Halfspaces[:bestIdx], p.Halfspaces[bestIdx+1:]...)
		p.vertsDirty = true
		p.gen++
		p.grow++ // dropping a binding constraint may enlarge R
		removed++
	}
}

// ReduceRedundant drops halfspaces that do not change R: h is redundant when
// max −w·u over R\{h} is ≤ 0 (every point of the relaxation already
// satisfies h). Keeping the set small bounds the vertex-enumeration pool.
// Returns the number of halfspaces removed.
func (p *Polytope) ReduceRedundant() int { return p.reduceRedundant(nil) }

// reduceRedundant is the removal loop behind ReduceRedundant and
// Incremental.Reduce, so both make the same keep/remove decisions by
// construction. After each removal it calls removed, when non-nil, with the
// list index the halfspace occupied and whether the vertex cache was clean
// just before the removal.
func (p *Polytope) reduceRedundant(removed func(i int, clean bool)) int {
	n := 0
	// One scratch relaxation and one negated-normal buffer serve every
	// probe; the actual removal splices p.Halfspaces in place.
	rest := make([]Halfspace, 0, len(p.Halfspaces))
	neg := make([]float64, p.Dim)
	for i := 0; i < len(p.Halfspaces); {
		h := p.Halfspaces[i]
		rest = append(rest[:0], p.Halfspaces[:i]...)
		rest = append(rest, p.Halfspaces[i+1:]...)
		q := &Polytope{Dim: p.Dim, Halfspaces: rest}
		if q.sideFeasible(vec.Scale(neg, -1, h.Normal), 1e-9) {
			i++ // h actively cuts; keep it
			continue
		}
		clean := !p.vertsDirty
		p.Halfspaces = append(p.Halfspaces[:i], p.Halfspaces[i+1:]...)
		p.vertsDirty = true
		p.gen++ // R itself is unchanged (h was redundant), so grow stays put
		n++
		if removed != nil {
			removed(i, clean)
		}
	}
	return n
}
