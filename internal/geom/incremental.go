package geom

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"isrl/internal/fault"
	"isrl/internal/lp"
	"isrl/internal/trace"
	"isrl/internal/vec"
)

// This file is the round-incremental geometry engine. The interactive loop
// mutates its polytope one halfspace per round, yet the scratch primitives
// (vertex enumeration, the Chebyshev LP, the 2d outer-rectangle LPs, the
// cuts-both-sides probes) recompute everything from the constraint list every
// time. An Incremental handle owns one session's polytope and maintains
// cross-round state instead:
//
//   - a vertexSet updated by clipping the current vertices against the new
//     halfspace — keep/cut classification, new vertices on crossing edges —
//     instead of re-enumerating all (d−1)-subsets;
//   - warm lp.Solvers for the inner-ball and base (feasibility/extrema)
//     programs, re-solved by dual-simplex repair after each push;
//   - one witness per outer-rectangle objective: an optimizer that still
//     lies in the shrunken R is still optimal, so its LP is skipped.
//
// Cut probes keep no state: the caller's inner ball certifies most of them
// in O(d), and the rest run on the warm base solver.
//
// The handle is the polytope's only writer, so every mutation updates the
// maintained structures or drops them (Repair); each one degrades to the
// scratch path on numeric doubt or an armed geom.inc.clip / geom.inc.witness
// fault — results stay exactly those of the scratch primitives (bit-identical
// for vertices, tolerance-identical for warm LP).

// incVertex is one maintained vertex with its active constraint set: indices
// into the pool (unit normals first, then nonzero halfspace normals), sorted
// ascending, recording which hyperplanes the vertex lies on.
type incVertex struct {
	u      []float64
	active []int
}

// vertexSet maintains the vertex list of a simple polytope across halfspace
// additions and redundant-halfspace removals. It mirrors the constraint pool
// of polytope.VerticesCtx and reproduces its output bit for bit: kept vertices
// keep the floats of their original d×d solves, and a new vertex is solved
// from the same system rows, in the same order, that the scratch enumeration
// would build for its active set. Whenever the polytope is not simple —
// some vertex lies on more or fewer than d−1 pool hyperplanes — clipping
// refuses and the owner falls back to scratch enumeration.
type vertexSet struct {
	d      int
	pool   [][]float64 // d unit normals, then nonzero halfspace normals
	norms  []float64   // ‖pool[i]‖, for classification tolerances
	hsPool []int       // per polytope halfspace: its pool index, or −1 (zero normal)
	verts  []incVertex // sorted by lexLess on u
	simple bool        // every vertex has exactly d−1 active constraints
}

// rebuild refreshes vs from a scratch enumeration of p, recomputes every
// active set and returns the enumerated list.
func (vs *vertexSet) rebuild(ctx context.Context, p *polytope) ([][]float64, error) {
	verts, err := p.VerticesCtx(ctx)
	if err != nil {
		return nil, err
	}
	d := p.Dim
	vs.d = d
	vs.pool = vs.pool[:0]
	vs.norms = vs.norms[:0]
	vs.hsPool = vs.hsPool[:0]
	for i := 0; i < d; i++ {
		e := make([]float64, d)
		e[i] = 1
		vs.pool = append(vs.pool, e)
		vs.norms = append(vs.norms, 1)
	}
	for _, h := range p.Halfspaces {
		n := vec.Norm(h.Normal)
		if n == 0 {
			vs.hsPool = append(vs.hsPool, -1)
			continue
		}
		vs.hsPool = append(vs.hsPool, len(vs.pool))
		vs.pool = append(vs.pool, h.Normal)
		vs.norms = append(vs.norms, n)
	}
	vs.verts = vs.verts[:0]
	vs.simple = true
	for _, u := range verts {
		act := make([]int, 0, d-1)
		for i, w := range vs.pool {
			if math.Abs(vec.Dot(w, u)) <= vertexTol*(1+vs.norms[i]) {
				act = append(act, i)
			}
		}
		if len(act) != d-1 {
			vs.simple = false
		}
		vs.verts = append(vs.verts, incVertex{u: u, active: act})
	}
	return verts, nil
}

// clip folds one freshly added halfspace into the vertex set. p must already
// contain h as its last halfspace. It returns false whenever the incremental
// update cannot be trusted to match scratch enumeration — a vertex on the new
// hyperplane, a non-simple new vertex, a quantized-key collision, an emptied
// or collapsed region — and the caller must rebuild; vs may then be left
// partially updated.
func (vs *vertexSet) clip(p *polytope, h Halfspace) bool {
	if !vs.simple {
		return false
	}
	d := vs.d
	nh := vec.Norm(h.Normal)
	if nh == 0 {
		// Scratch excludes zero normals from the pool; R is unchanged.
		vs.hsPool = append(vs.hsPool, -1)
		return true
	}
	newIdx := len(vs.pool)
	tolH := vertexTol * (1 + nh)
	var keep, cut []int
	for i := range vs.verts {
		s := vec.Dot(h.Normal, vs.verts[i].u)
		switch {
		case s > tolH:
			keep = append(keep, i)
		case s < -tolH:
			cut = append(cut, i)
		default:
			return false // vertex on the new hyperplane: no longer simple
		}
	}
	vs.pool = append(vs.pool, h.Normal)
	vs.norms = append(vs.norms, nh)
	vs.hsPool = append(vs.hsPool, newIdx)
	if len(cut) == 0 {
		// Every vertex strictly satisfies h, so conv(verts) = R does too:
		// h changed nothing and no subset containing it is feasible.
		return true
	}
	if len(keep) == 0 {
		return false // R lost every vertex; let the scratch path judge
	}

	// Each edge from a kept to a cut vertex crosses the new hyperplane in one
	// new vertex. In a simple polytope two vertices are adjacent exactly when
	// they share d−2 active constraints; the crossing point is the solution of
	// Σu = 1, those d−2 hyperplanes, and h — precisely the system the scratch
	// enumeration solves for the active set {shared…, h}, rows in ascending
	// pool order, so the floats come out bit-identical.
	A := vec.NewMat(d, d)
	b := make([]float64, d)
	b[0] = 1
	var fresh []incVertex
	shared := make([]int, 0, d-1)
	for _, ki := range keep {
		ka := vs.verts[ki].active
		for _, ci := range cut {
			ca := vs.verts[ci].active
			shared = shared[:0]
			x, y := 0, 0
			for x < len(ka) && y < len(ca) {
				switch {
				case ka[x] == ca[y]:
					shared = append(shared, ka[x])
					x++
					y++
				case ka[x] < ca[y]:
					x++
				default:
					y++
				}
			}
			if len(shared) != d-2 {
				continue // not adjacent: no edge to cross
			}
			for j := 0; j < d; j++ {
				A.Set(0, j, 1)
			}
			for r, si := range shared {
				copy(A.Row(r+1), vs.pool[si])
			}
			copy(A.Row(d-1), h.Normal)
			u, ok := vec.SolveLinear(A, b, 1e-10)
			if !ok {
				continue // scratch skips the singular system too
			}
			if !p.feasibleVertex(u) {
				continue
			}
			act := make([]int, 0, d-1)
			act = append(act, shared...)
			act = append(act, newIdx)
			fresh = append(fresh, incVertex{u: u, active: act})
		}
	}
	if len(fresh) == 0 {
		return false // vertices were cut with no replacement: degenerate
	}

	// The new vertices must themselves be simple — exactly d−1 active pool
	// constraints — or the next clip would misjudge adjacency.
	for fi := range fresh {
		u := fresh[fi].u
		n := 0
		for i, w := range vs.pool {
			if math.Abs(vec.Dot(w, u)) <= vertexTol*(1+vs.norms[i]) {
				n++
			}
		}
		if n != d-1 {
			return false
		}
	}

	// Scratch dedups by quantized key; a collision there must force a rebuild
	// here or the two lists diverge.
	seen := make(map[string]bool, len(keep)+len(fresh))
	for _, ki := range keep {
		seen[quantKey(vs.verts[ki].u)] = true
	}
	for fi := range fresh {
		k := quantKey(fresh[fi].u)
		if seen[k] {
			return false
		}
		seen[k] = true
	}

	sort.Slice(fresh, func(a, b int) bool { return lexLess(fresh[a].u, fresh[b].u) })
	merged := make([]incVertex, 0, len(keep)+len(fresh))
	x, y := 0, 0
	for x < len(keep) && y < len(fresh) {
		if lexLess(vs.verts[keep[x]].u, fresh[y].u) {
			merged = append(merged, vs.verts[keep[x]])
			x++
		} else {
			merged = append(merged, fresh[y])
			y++
		}
	}
	for ; x < len(keep); x++ {
		merged = append(merged, vs.verts[keep[x]])
	}
	merged = append(merged, fresh[y:]...)
	vs.verts = merged
	return true
}

// remove drops the polytope halfspace at list index listIdx from the pool
// bookkeeping. The caller has certified the halfspace redundant, and in a
// simple polytope a redundant hyperplane is active at no vertex, so the
// vertex list itself is unchanged; remove only reindexes the active sets.
// It returns false — caller must rebuild — when the certificate is
// contradicted at tolerance level (some vertex does lie on the hyperplane)
// or the set is not simple.
func (vs *vertexSet) remove(listIdx int) bool {
	pi := vs.hsPool[listIdx]
	vs.hsPool = append(vs.hsPool[:listIdx], vs.hsPool[listIdx+1:]...)
	if pi < 0 {
		return true // zero normal never entered the pool
	}
	if !vs.simple {
		return false
	}
	for i := range vs.verts {
		for _, a := range vs.verts[i].active {
			if a == pi {
				return false
			}
		}
	}
	vs.pool = append(vs.pool[:pi], vs.pool[pi+1:]...)
	vs.norms = append(vs.norms[:pi], vs.norms[pi+1:]...)
	for i := range vs.hsPool {
		if vs.hsPool[i] > pi {
			vs.hsPool[i]--
		}
	}
	for i := range vs.verts {
		act := vs.verts[i].active
		for k := range act {
			if act[k] > pi {
				act[k]--
			}
		}
	}
	return true
}

// Incremental is a session's utility range R: it owns its polytope, and
// every mutation goes through AddCtx, Reduce or Repair, so the maintained
// state always describes the polytope it was built from. All reads route to
// the scratch primitives when that state is cold or degraded, so callers get
// scratch semantics with cross-round reuse as an optimization. Not safe for
// concurrent use (matching lp.Solver).
type Incremental struct {
	p *polytope

	vs      vertexSet
	verts   [][]float64 // vs's vertex list, served while vsFresh
	vsFresh bool        // vs and verts mirror p

	inner *lp.Solver // Chebyshev-center program; nil until first InnerBallCtx
	base  *lp.Solver // feasibility/extrema program; nil until first use

	// rectX[k] and rectVal[k] are the optimizer and value of the last Optimal
	// solve of outer-rectangle objective k (2i maximizes uᵢ, 2i+1 minimizes
	// it); an empty rectX[k] means no witness. Witnesses live until Repair
	// grows R. Allocated on the first OuterRectCtx.
	rectX   [][]float64
	rectVal []float64
}

// witnessTol is the containment slack for reusing an outer-rectangle
// witness: no looser than 1e-8·(1+‖n‖) for any halfspace normal n.
const witnessTol = 1e-8

// ballTol is the slack, per unit of ‖n‖ plus one, that a ball certificate in
// CutsBothSides must clear on top of the margin: it absorbs the LP
// feasibility tolerance of the ball itself.
const ballTol = 1e-7

// NewIncremental returns the full utility space U in d dimensions, with no
// state warmed yet.
func NewIncremental(d int) *Incremental {
	return &Incremental{p: newPolytope(d)}
}

// Dim reports the dimension of R.
func (g *Incremental) Dim() int { return g.p.Dim }

// Halfspaces returns the halfspaces bounding R. The slice is the handle's
// own: callers must neither modify nor retain it.
func (g *Incremental) Halfspaces() []Halfspace { return g.p.Halfspaces }

// SampleCtx draws n points from R by hit-and-run (polytope.SampleCtx). The
// chains start from a scratch inner-ball solve; the warm inner-ball program
// is not consulted, so a draw depends only on R, rng and n, not on which
// reads warmed the handle before it.
func (g *Incremental) SampleCtx(ctx context.Context, rng *rand.Rand, n int) ([][]float64, error) {
	return g.p.SampleCtx(ctx, rng, n)
}

// AddCtx intersects the polytope with h, folding it into every maintained
// structure: the vertex set by halfspace clip, the warm solvers by
// constraint push. A successful or degraded clip shows up as a
// "geom.inc.clip" span when ctx carries an active trace.
func (g *Incremental) AddCtx(ctx context.Context, h Halfspace) {
	g.p.Add(h)
	if g.vsFresh {
		_, sp := trace.Start(ctx, "geom.inc.clip")
		if fault.Hit(fault.PointIncClip) == nil && g.vs.clip(g.p, h) {
			incClips.Inc()
			g.verts = make([][]float64, len(g.vs.verts))
			for i := range g.vs.verts {
				g.verts[i] = g.vs.verts[i].u
			}
		} else {
			g.vsFresh = false
			incFallbacks.Inc()
		}
		if sp != nil {
			sp.SetInt("vertices", int64(len(g.verts)))
		}
		sp.End()
	}
	if g.inner != nil {
		if row, ok := innerBallRow(h, g.p.Dim); ok {
			g.inner.Push(lp.Constraint{Coeffs: row, Sense: lp.GE, RHS: 0})
		}
	}
	if g.base != nil {
		g.base.Push(lp.Constraint{Coeffs: h.Normal, Sense: lp.GE, RHS: 0})
	}
}

// VerticesCtx returns the vertex set of R, serving the maintained list when
// it is current and rebuilding it from scratch enumeration otherwise.
func (g *Incremental) VerticesCtx(ctx context.Context) ([][]float64, error) {
	if g.vsFresh {
		incVertHits.Inc()
		return g.verts, nil
	}
	incRebuilds.Inc()
	verts, err := g.vs.rebuild(ctx, g.p)
	if err != nil {
		return nil, err
	}
	g.verts, g.vsFresh = verts, true
	return verts, nil
}

// InnerBallCtx returns the Chebyshev ball of R, warm-re-solving the
// maintained inner-ball program instead of rebuilding the LP each round.
func (g *Incremental) InnerBallCtx(ctx context.Context) (Ball, error) {
	_, sp := trace.Start(ctx, "geom.inner_ball")
	defer sp.End()
	if g.inner == nil {
		g.inner = lp.NewSolver(g.p.innerBallProblem())
	}
	res := g.inner.Solve()
	if res.Status != lp.Optimal {
		return Ball{}, fmt.Errorf("geom: inner ball: %v", res.Status)
	}
	d := g.p.Dim
	return Ball{Center: vec.Clone(res.X[:d]), Radius: res.Objective}, nil
}

// OuterRectCtx returns the per-dimension extrema of u over R, driving the 2d
// solves through the warm base solver (phase-1-free re-optimizations). R only
// shrinks between Repair resets, so an objective whose last optimizer still
// lies in R keeps its value and skips the LP; an armed geom.inc.witness fault
// solves every objective instead.
func (g *Incremental) OuterRectCtx(ctx context.Context) (emin, emax []float64, err error) {
	_, sp := trace.Start(ctx, "geom.outer_rect")
	defer sp.End()
	d := g.p.Dim
	if g.rectX == nil {
		buf := make([]float64, 2*d*d)
		g.rectX = make([][]float64, 2*d)
		for k := range g.rectX {
			g.rectX[k] = buf[k*d : k*d : (k+1)*d]
		}
		g.rectVal = make([]float64, 2*d)
	}
	reuse := fault.Hit(fault.PointIncWitness) == nil
	emin = make([]float64, d)
	emax = make([]float64, d)
	obj := make([]float64, d)
	for k := 0; k < 2*d; k++ {
		if reuse && len(g.rectX[k]) > 0 && g.p.Contains(g.rectX[k], witnessTol) {
			incRectWitnessHits.Inc()
		} else {
			if g.base == nil {
				g.base = lp.NewSolver(g.p.baseProblem(0))
			}
			vec.Fill(obj, 0)
			obj[k/2] = 1 - float64(2*(k%2)) // +1 maximizes uᵢ, −1 minimizes it
			res := g.base.SolveWith(obj)
			if res.Status != lp.Optimal {
				side := [2]string{"max", "min"}[k%2]
				return nil, nil, fmt.Errorf("geom: outer rect %s dim %d: %v", side, k/2, res.Status)
			}
			g.rectX[k] = append(g.rectX[k][:0], res.X[:d]...)
			g.rectVal[k] = res.Objective
		}
		if k%2 == 0 {
			emax[k/2] = g.rectVal[k]
		} else {
			emin[k/2] = -g.rectVal[k]
		}
	}
	return emin, emax, nil
}

// CutsBothSides is polytope.CutsBothSides, certified by ball when it can be
// and decided by the warm base solver otherwise. ball must be the Chebyshev
// ball of the current R (InnerBallCtx since the last mutation); a zero Ball
// certifies nothing. The Chebyshev program measures facet distances in the
// full space and keeps cᵢ ≥ r, so c ± r·v lies in R for every unit v with
// Σv = 0. With n_p the normal of h projected onto Σv = 0, the hyperplane
// therefore reaches n·c ± r‖n_p‖ on the two sides, and |n·c| < r‖n_p‖ −
// margin proves the cut in O(d) with no LP.
func (g *Incremental) CutsBothSides(ball Ball, h Halfspace, margin float64) bool {
	n := h.Normal
	if ball.Radius > 0 {
		mean := vec.Sum(n) / float64(len(n))
		var np2 float64
		for _, ni := range n {
			np2 += (ni - mean) * (ni - mean)
		}
		slack := ball.Radius*math.Sqrt(np2) - margin - ballTol*(1+vec.Norm(n))
		if math.Abs(vec.Dot(n, ball.Center)) < slack {
			incProbeBallHits.Inc()
			return true
		}
	}
	if g.base == nil {
		g.base = lp.NewSolver(g.p.baseProblem(0))
	}
	obj := make([]float64, g.p.Dim)
	copy(obj, n)
	if res := g.base.SolveWith(obj); res.Status != lp.Optimal || res.Objective <= margin {
		return false
	}
	vec.Scale(obj, -1, n)
	res := g.base.SolveWith(obj)
	return res.Status == lp.Optimal && res.Objective > margin
}

// Reduce is polytope.ReduceRedundant with maintained-state upkeep: it runs
// the same removal loop (identical removal decisions), the vertex set
// survives each removal by reindexing (a redundant halfspace is active at no
// vertex of a simple polytope), and the warm solvers are dropped for lazy
// rebuild — the inner-ball program normalizes every row into a ball
// constraint, so a removed redundant halfspace does change its optimum, and
// rebuilding also keeps tableau width bounded by the live constraint count.
func (g *Incremental) Reduce() int {
	removed := g.p.reduceRedundant(func(i int) {
		if g.vsFresh && !g.vs.remove(i) {
			g.vsFresh = false
			incFallbacks.Inc()
		}
	})
	if removed > 0 {
		g.inner, g.base = nil, nil
	}
	return removed
}

// Repair is polytope.RepairFeasibility on R. Dropping a halfspace may grow
// R, which neither clipping, nor a pushed solver row, nor a witness can
// follow, so when it removes any it drops the vertex set, both warm solvers
// and every outer-rectangle witness; the next reads rebuild from scratch.
func (g *Incremental) Repair() int {
	removed := g.p.RepairFeasibility()
	if removed > 0 {
		g.vsFresh = false
		g.inner, g.base = nil, nil
		for k := range g.rectX {
			g.rectX[k] = g.rectX[k][:0]
		}
	}
	return removed
}
