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

	// Warm tableau state; meaningful only when warm is true.
	warm   bool
	rows   [][]float64 // m × (cols+1), RHS last; cap leaves growth headroom
	basis  []int
	banned []bool // dead artificial columns (phase 1); nil when none
	obj    []float64
	posCol []int
	negCol []int
	cols   int
	pushes int // warm pushes since the last cold solve

	ar *arena    // owned scratch for cold solves and reduced-cost rows
	xs []float64 // column-value scratch for X recovery
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
	if s.infeasible {
		// A superset of an infeasible system stays infeasible.
		s.res = Result{Status: Infeasible}
		return s.res
	}
	if !s.solved || !s.warm || c.Sense == EQ {
		s.cold()
		return s.res
	}
	if s.pushes+1 >= refactorEvery {
		s.cold()
		return s.res
	}
	warmSolves.Inc()
	if err := fault.Hit(fault.PointLPWarm); err != nil {
		warmFallbacks.Inc()
		s.cold()
		return s.res
	}
	s.pushes++
	if s.pushWarm(own) {
		warmHits.Inc()
	} else {
		warmFallbacks.Inc()
		s.cold()
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
	if s.infeasible {
		s.res = Result{Status: Infeasible}
		return s.res
	}
	if !s.solved || !s.warm {
		s.cold()
		return s.res
	}
	warmSolves.Inc()
	if err := fault.Hit(fault.PointLPWarm); err != nil {
		warmFallbacks.Inc()
		s.cold()
		return s.res
	}
	s.expandObj()
	s.ar.reset()
	tab := &tableau{t: s.rows, basis: s.basis, cols: s.cols, banned: s.banned, ar: s.ar}
	z, st := tab.run(s.obj, s.banned)
	warmPrimalPivots.Add(int64(tab.pivots))
	switch st {
	case Optimal:
		warmHits.Inc()
		s.res = Result{Status: Optimal, X: s.extractX(), Objective: z}
	case Unbounded:
		// The tableau stayed primal-feasible but dual feasibility is gone;
		// the next Push must not assume an optimal basis.
		warmHits.Inc()
		s.warm = false
		s.res = Result{Status: Unbounded}
	default:
		warmFallbacks.Inc()
		s.cold()
	}
	return s.res
}

// cold rebuilds the tableau from scratch over the accumulated problem. It is
// Solve on s.prob — including the lp.solve fault hook, so chaos plans that
// poison cold solves poison lazily-initialized warm solvers the same way.
func (s *Solver) cold() {
	warmCold.Inc()
	s.solved = true
	s.pushes = 0
	if err := fault.Hit(fault.PointLPSolve); err != nil {
		s.res = Result{Status: IterLimit}
		s.warm = false
		return
	}
	if s.ar == nil {
		s.ar = new(arena)
	}
	s.ar.reset()
	res, tab, lay := solveCore(&s.prob, s.ar)
	s.res = res
	if res.Status == Infeasible {
		s.infeasible = true
	}
	if res.Status != Optimal {
		s.warm = false
		return
	}
	// Copy the arena-backed tableau into owned storage with growth headroom;
	// the arena is reused by the next cold solve or reduced-cost row.
	s.cols = lay.cols
	s.posCol = append(s.posCol[:0], lay.posCol...)
	s.negCol = append(s.negCol[:0], lay.negCol...)
	s.basis = append(s.basis[:0], tab.basis...)
	if tab.banned != nil {
		if cap(s.banned) < lay.cols+growReserve {
			s.banned = make([]bool, lay.cols, lay.cols+growReserve)
		} else {
			s.banned = s.banned[:lay.cols]
		}
		copy(s.banned, tab.banned)
	} else {
		s.banned = nil
	}
	m := len(tab.t)
	if cap(s.rows) < m {
		old := s.rows
		s.rows = make([][]float64, len(old), m+growReserve)
		copy(s.rows, old)
	}
	for i := 0; i < m; i++ {
		var row []float64
		if i < len(s.rows) && cap(s.rows[i]) >= lay.cols+1 {
			row = s.rows[i][:lay.cols+1]
		} else {
			row = make([]float64, lay.cols+1, lay.cols+1+growReserve)
		}
		copy(row, tab.t[i])
		if i < len(s.rows) {
			s.rows[i] = row
		} else {
			s.rows = append(s.rows, row)
		}
	}
	s.rows = s.rows[:m]
	s.warm = true
}

// expandObj spreads prob.Maximize over the standard-form columns.
func (s *Solver) expandObj() {
	if cap(s.obj) < s.cols {
		s.obj = make([]float64, s.cols, s.cols+growReserve)
	}
	s.obj = s.obj[:s.cols]
	for k := range s.obj {
		s.obj[k] = 0
	}
	for j, cj := range s.prob.Maximize {
		s.obj[s.posCol[j]] = cj
		if s.negCol[j] >= 0 {
			s.obj[s.negCol[j]] = -cj
		}
	}
}

// extractX recovers the original variables from the current basis.
func (s *Solver) extractX() []float64 {
	cols := s.cols
	if cap(s.xs) < cols {
		s.xs = make([]float64, cols, cols+growReserve)
	}
	s.xs = s.xs[:cols]
	for k := range s.xs {
		s.xs[k] = 0
	}
	for i, b := range s.basis {
		s.xs[b] = s.rows[i][cols]
	}
	n := s.prob.NumVars
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		x[j] = s.xs[s.posCol[j]]
		if s.negCol[j] >= 0 {
			x[j] -= s.xs[s.negCol[j]]
		}
	}
	return x
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

	// Grow every structure by the new slack column at index cols, shifting
	// the RHS right by one.
	cols := s.cols
	for i := range s.rows {
		row := append(s.rows[i], 0)
		row[cols+1] = row[cols]
		row[cols] = 0
		s.rows[i] = row
	}
	if s.banned != nil {
		s.banned = append(s.banned, false)
	}
	s.cols = cols + 1
	cols = s.cols
	slack := cols - 1

	// Rebuild the reduced-cost row for the current objective at the current
	// basis (the basis is optimal for it, so red ≤ 0 up to roundoff — dual
	// feasibility, the precondition for the dual ratio test).
	s.expandObj()
	s.ar.reset()
	red := s.ar.floats(cols + 1)
	copy(red, s.obj)
	for i, bi := range s.basis {
		cb := s.obj[bi]
		if cb == 0 {
			continue
		}
		vec.SubScaled(red, cb, s.rows[i][:cols+1])
	}

	// New row in tableau coordinates, reduced against the basis so existing
	// basic columns stay clean.
	row := make([]float64, cols+1, cols+1+growReserve)
	for j, aj := range c.Coeffs {
		row[s.posCol[j]] = sign * aj
		if s.negCol[j] >= 0 {
			row[s.negCol[j]] = -sign * aj
		}
	}
	row[slack] = 1
	row[cols] = b
	for i, bi := range s.basis {
		f := row[bi]
		if f == 0 {
			continue
		}
		vec.SubScaled(row, f, s.rows[i][:cols+1])
		row[bi] = 0
	}
	s.rows = append(s.rows, row)
	s.basis = append(s.basis, slack)

	// Dual simplex: pick the most-negative RHS row, enter the column
	// minimizing red/t over t < 0 (smallest index on ties, which also breaks
	// degenerate cycles in practice), pivot, repeat.
	m := len(s.rows)
	maxIter := 200 + 20*m
	for iter := 0; iter < maxIter; iter++ {
		r, worst := -1, -eps
		for i := 0; i < m; i++ {
			if v := s.rows[i][cols]; v < worst {
				worst, r = v, i
			}
		}
		if r < 0 {
			break // primal feasible again: optimal
		}
		enter, best := -1, math.Inf(1)
		tr := s.rows[r]
		for j := 0; j < cols; j++ {
			if s.banned != nil && j < len(s.banned) && s.banned[j] {
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
		s.pivotWarm(r, enter, red)
		warmPivots.Inc()
		if iter == maxIter-1 {
			return false // cap hit with rows still negative
		}
	}

	x := s.extractX()
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

// pivotWarm is tableau.pivot plus the reduced-cost update the run loop
// normally performs.
func (s *Solver) pivotWarm(leave, enter int, red []float64) {
	prow := s.rows[leave][:s.cols+1]
	inv := 1 / prow[enter]
	for j := range prow {
		prow[j] *= inv
	}
	prow[enter] = 1
	for i, row := range s.rows {
		if i == leave {
			continue
		}
		f := row[enter]
		if f == 0 {
			continue
		}
		vec.SubScaled(row[:s.cols+1], f, prow)
		row[enter] = 0
	}
	s.basis[leave] = enter
	if f := red[enter]; f != 0 {
		vec.SubScaled(red, f, prow)
		red[enter] = 0
	}
}
