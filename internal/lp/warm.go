// Warm-started solving. A Solver owns one linear program that only ever
// grows by one constraint at a time — the shape of the interactive loop,
// where each round intersects the utility range with a single halfspace. It
// keeps the optimal basis and tableau across calls, so a re-solve after an
// added constraint is a dual-simplex repair (usually zero or a handful of
// pivots) and a re-solve under a new objective is a primal re-optimization
// from the previous basis (no phase 1), instead of a full two-phase cold
// solve either way. Any numeric doubt falls back to the cold path, which is
// bit-identical to Solve on the same accumulated problem.
package lp

import (
	"fmt"
	"math"

	"isrl/internal/fault"
	"isrl/internal/obs"
	"isrl/internal/vec"
)

// Warm-start telemetry. solves counts warm attempts (Push and SolveWith on a
// live basis), hits the attempts that finished warm, fallbacks the attempts
// that had to rebuild cold; cold counts every from-scratch solve a Solver ran
// (lazy inits, periodic refactorizations and fallbacks alike). pivots counts
// Push's dual-simplex pivots and primal_pivots SolveWith's primal ones.
var (
	warmSolves       = obs.Default().Counter("lp.warm.solves")
	warmHits         = obs.Default().Counter("lp.warm.hits")
	warmPivots       = obs.Default().Counter("lp.warm.pivots")
	warmPrimalPivots = obs.Default().Counter("lp.warm.primal_pivots")
	warmFallbacks    = obs.Default().Counter("lp.warm.fallbacks")
	warmCold         = obs.Default().Counter("lp.warm.cold")
)

// refactorEvery bounds floating-point drift: after this many consecutive
// warm pushes the tableau is rebuilt from scratch, like the periodic
// refactorization of a product-form simplex.
const refactorEvery = 32

// growReserve is the column/row headroom allocated beyond the current
// tableau so the usual push (one new slack column, one new row) extends
// slices in place instead of reallocating.
const growReserve = 48

// Solver is a reusable warm-started simplex over one growing problem.
// It is not safe for concurrent use. Result.X slices returned by its methods
// must be treated as read-only; they are freshly allocated per re-solve but
// cached between calls.
type Solver struct {
	prob Problem // owned accumulated problem
	res  Result

	solved     bool // res reflects prob
	infeasible bool // sticky: adding constraints cannot restore feasibility

	// The last cold solve's optimal tableau and column map, copied into
	// owned storage and grown by each warm push; meaningful only when warm
	// is true.
	warm   bool
	tb     tableau
	lay    layout
	pushes int // warm pushes since the last cold solve

	// Owned scratch, resized per re-solve: the expanded objective (reused
	// for the column values X is read from) and the reduced-cost row.
	obj, red []float64
}

// NewSolver returns a solver owning a copy of p. Later changes to p are not
// seen; constraint coefficient slices are shared and must not be mutated.
func NewSolver(p *Problem) *Solver {
	s := &Solver{}
	s.prob.NumVars = p.NumVars
	s.prob.Maximize = append([]float64(nil), p.Maximize...)
	s.prob.Free = append([]bool(nil), p.Free...)
	s.prob.Constraints = append([]Constraint(nil), p.Constraints...)
	return s
}

// NumConstraints reports how many constraints the accumulated problem holds.
func (s *Solver) NumConstraints() int { return len(s.prob.Constraints) }

// Solve returns the current optimum, cold-solving on first use. Subsequent
// calls without intervening Push/SolveWith return the cached result.
func (s *Solver) Solve() Result {
	if !s.solved {
		s.cold()
	}
	return s.res
}

// Push appends one constraint and re-solves. On a live warm basis this is a
// dual-simplex repair: the new row is reduced against the basis and, when it
// violates feasibility, dual pivots restore it — typically far cheaper than
// a cold solve. EQ constraints, numeric trouble, the periodic
// refactorization and the lp.warm fault point all take the cold path, whose
// result is bit-identical to Solve on the same accumulated problem.
func (s *Solver) Push(c Constraint) Result {
	if len(c.Coeffs) != s.prob.NumVars {
		panic(fmt.Sprintf("lp: pushed constraint has %d coefficients, want %d", len(c.Coeffs), s.prob.NumVars))
	}
	own := Constraint{Coeffs: append([]float64(nil), c.Coeffs...), Sense: c.Sense, RHS: c.RHS}
	s.prob.Constraints = append(s.prob.Constraints, own)
	if s.startWarm(c.Sense == EQ || s.pushes+1 >= refactorEvery) {
		s.pushes++
		s.endWarm(s.pushWarm(own))
	}
	return s.res
}

// SolveWith re-optimizes under a new objective. On a live warm basis the
// previous optimal basis is primal-feasible for any objective, so this runs
// plain primal simplex from it — skipping phase 1 entirely. Infeasibility is
// objective-independent and short-circuits.
func (s *Solver) SolveWith(objective []float64) Result {
	if len(objective) != s.prob.NumVars {
		panic(fmt.Sprintf("lp: objective has %d coefficients, want %d", len(objective), s.prob.NumVars))
	}
	s.prob.Maximize = append(s.prob.Maximize[:0], objective...)
	if !s.startWarm(false) {
		return s.res
	}
	s.expandObj()
	s.tb.pivots = 0
	z, st := s.tb.run(s.obj, s.red)
	warmPrimalPivots.Add(int64(s.tb.pivots))
	switch st {
	case Optimal:
		s.res = Result{Status: Optimal, X: s.tb.solution(s.lay, s.obj), Objective: z}
	case Unbounded:
		// The tableau stayed primal-feasible but dual feasibility is gone;
		// the next Push must not assume an optimal basis.
		s.warm = false
		s.res = Result{Status: Unbounded}
	}
	s.endWarm(st != IterLimit)
	return s.res
}

// startWarm reports whether a re-solve may run warm. When it may not, s.res
// already holds the answer: the sticky infeasible one, or a cold solve's
// when there is no live basis, when force asks for one, or when the lp.warm
// fault point fires.
func (s *Solver) startWarm(force bool) bool {
	if s.infeasible {
		// A superset of an infeasible system stays infeasible, whatever
		// the objective.
		s.res = Result{Status: Infeasible}
		return false
	}
	if force || !s.warm {
		s.cold()
		return false
	}
	warmSolves.Inc()
	if err := fault.Hit(fault.PointLPWarm); err != nil {
		s.endWarm(false)
		return false
	}
	return true
}

// endWarm counts how a warm attempt ended and rebuilds cold when it failed.
func (s *Solver) endWarm(ok bool) {
	if ok {
		warmHits.Inc()
		return
	}
	warmFallbacks.Inc()
	s.cold()
}

// cold rebuilds the tableau from scratch over the accumulated problem. It is
// Solve on s.prob — including the lp.solve fault hook, so chaos plans that
// poison cold solves poison lazily-initialized warm solvers the same way.
func (s *Solver) cold() {
	warmCold.Inc()
	s.solved, s.warm, s.pushes = true, false, 0
	if err := fault.Hit(fault.PointLPSolve); err != nil {
		s.res = Result{Status: IterLimit}
		return
	}
	ar := arenaPool.Get().(*arena)
	ar.reset()
	defer arenaPool.Put(ar)
	res, tab, lay := solveCore(&s.prob, ar)
	s.res = res
	s.infeasible = res.Status == Infeasible
	if res.Status != Optimal {
		return
	}
	// Copy the arena-backed tableau into owned rows with growth headroom;
	// the arena goes back to the pool when cold returns. banned is not
	// carved from the arena and is taken as it is.
	s.lay.posCol = append(s.lay.posCol[:0], lay.posCol...)
	s.lay.negCol = append(s.lay.negCol[:0], lay.negCol...)
	tb := &s.tb
	tb.cols, tb.banned = tab.cols, tab.banned
	tb.basis = append(tb.basis[:0], tab.basis...)
	if cap(tb.t) < len(tab.t) {
		tb.t = append(make([][]float64, 0, len(tab.t)+growReserve), tb.t...)
	}
	tb.t = tb.t[:len(tab.t)]
	for i, row := range tab.t {
		if cap(tb.t[i]) < len(row) {
			tb.t[i] = make([]float64, 0, len(row)+growReserve)
		}
		tb.t[i] = append(tb.t[i][:0], row...)
	}
	s.warm = true
}

// expandObj spreads prob.Maximize over the tableau's columns into s.obj and
// sizes s.red to match.
func (s *Solver) expandObj() {
	s.obj = resize(s.obj, s.tb.cols)
	s.lay.expand(s.obj, s.prob.Maximize, 1)
	s.red = resize(s.red, s.tb.cols+1)
}

// resize returns buf zeroed at length n, reallocated with growth headroom
// when its capacity is short.
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n, n+growReserve)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// pushWarm repairs optimality after appending constraint c: a new slack
// column and basic row enter the tableau, then dual-simplex pivots drive any
// negative right-hand side out. Returns false when the repair should be
// abandoned for a cold rebuild (iteration cap, drifted solution).
func (s *Solver) pushWarm(c Constraint) bool {
	// ≤-form: a·x ≤ b. A GE row flips; the RHS may go negative — restoring
	// primal feasibility is exactly what the dual iteration is for.
	sign := 1.0
	b := c.RHS
	if c.Sense == GE {
		sign, b = -1, -b
	}

	// Grow every row by the new slack column at index cols, shifting the
	// RHS right by one.
	tb := &s.tb
	slack := tb.cols
	for i, row := range tb.t {
		row = append(row, row[slack])
		row[slack] = 0
		tb.t[i] = row
	}
	if tb.banned != nil {
		tb.banned = append(tb.banned, false)
	}
	tb.cols++
	cols := tb.cols

	// Rebuild the reduced-cost row for the current objective at the current
	// basis (the basis is optimal for it, so red ≤ 0 up to roundoff — dual
	// feasibility, the precondition for the dual ratio test).
	s.expandObj()
	red := s.red
	tb.reduce(red, s.obj)

	// New row in tableau coordinates, reduced against the basis so existing
	// basic columns stay clean.
	row := make([]float64, cols+1, cols+1+growReserve)
	s.lay.expand(row, c.Coeffs, sign)
	row[slack] = 1
	row[cols] = b
	for i, bi := range tb.basis {
		if f := row[bi]; f != 0 {
			vec.SubScaled(row, f, tb.t[i][:cols+1])
			row[bi] = 0
		}
	}
	tb.t = append(tb.t, row)
	tb.basis = append(tb.basis, slack)

	// Dual simplex: pick the most-negative RHS row, enter the column
	// minimizing red/t over t < 0 (smallest index on ties, which also breaks
	// degenerate cycles in practice), pivot, repeat.
	maxIter := 200 + 20*len(tb.t)
	for iter := 0; iter < maxIter; iter++ {
		r, worst := -1, -eps
		for i, ti := range tb.t {
			if v := ti[cols]; v < worst {
				worst, r = v, i
			}
		}
		if r < 0 {
			break // primal feasible again: optimal
		}
		enter, best := -1, math.Inf(1)
		tr := tb.t[r]
		for j := 0; j < cols; j++ {
			if tb.banned != nil && tb.banned[j] {
				continue
			}
			if tr[j] < -eps {
				rc := red[j]
				if rc > 0 {
					rc = 0 // roundoff residue; dual feasibility holds
				}
				if ratio := rc / tr[j]; ratio < best {
					best, enter = ratio, j
				}
			}
		}
		if enter < 0 {
			// No column can restore this row: primal infeasible.
			s.infeasible = true
			s.warm = false
			s.res = Result{Status: Infeasible}
			return true
		}
		tb.pivot(r, enter, red)
		warmPivots.Inc()
		if iter == maxIter-1 {
			return false // cap hit with rows still negative
		}
	}

	x := tb.solution(s.lay, s.obj)
	// Sanity: the pushed constraint must hold at the recovered point; drift
	// beyond tolerance means the warm basis went numerically stale.
	var dot float64
	for j, aj := range c.Coeffs {
		dot += float64(aj * x[j])
	}
	viol := 0.0
	switch c.Sense {
	case LE:
		viol = dot - c.RHS
	case GE:
		viol = c.RHS - dot
	}
	if viol > 1e-6*(1+math.Abs(c.RHS)) {
		return false
	}
	s.res = Result{Status: Optimal, X: x, Objective: -red[cols]}
	return true
}
