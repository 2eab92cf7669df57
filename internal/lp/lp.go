// Package lp implements a dense two-phase simplex solver for small linear
// programs in general form:
//
//	maximize   c·x
//	subject to Aᵢ·x {≤,=,≥} bᵢ   for each constraint i
//	           xⱼ ≥ 0, or xⱼ free
//
// The solver targets the problem sizes that appear in interactive regret
// queries — a handful to a few hundred constraints over 2–30 variables — and
// favours robustness over asymptotics: it runs Dantzig's rule with a
// degeneracy watchdog that switches to Bland's rule, which guarantees
// termination.
package lp

import (
	"fmt"
	"math"
	"sync"

	"isrl/internal/fault"
	"isrl/internal/vec"
)

// arena recycles the simplex working set — tableau rows, index maps,
// reduced-cost row — across Solve calls and a Solver's cold solves via a
// sync.Pool. Solve runs on every geometry probe in the hot interactive
// loop, and rebuilding the tableau used to dominate its allocation
// profile. Carved slices are zeroed, so they
// behave exactly like fresh make() slices; Result.X is still freshly
// allocated and never aliases pooled memory.
type arena struct {
	f    []float64
	fOff int
	i    []int
	iOff int
	r    [][]float64
	rOff int
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

func (a *arena) reset() { a.fOff, a.iOff, a.rOff = 0, 0, 0 }

// floats carves a zeroed n-element slice from the arena. When the backing
// array is exhausted a larger one replaces it; slices carved earlier keep
// pointing at the old array and stay valid.
func (a *arena) floats(n int) []float64 {
	if a.fOff+n > len(a.f) {
		a.f = make([]float64, 2*len(a.f)+n)
		a.fOff = 0
	}
	s := a.f[a.fOff : a.fOff+n : a.fOff+n]
	a.fOff += n
	for k := range s {
		s[k] = 0
	}
	return s
}

func (a *arena) ints(n int) []int {
	if a.iOff+n > len(a.i) {
		a.i = make([]int, 2*len(a.i)+n)
		a.iOff = 0
	}
	s := a.i[a.iOff : a.iOff+n : a.iOff+n]
	a.iOff += n
	for k := range s {
		s[k] = 0
	}
	return s
}

func (a *arena) rowPtrs(n int) [][]float64 {
	if a.rOff+n > len(a.r) {
		a.r = make([][]float64, 2*len(a.r)+n)
		a.rOff = 0
	}
	s := a.r[a.rOff : a.rOff+n : a.rOff+n]
	a.rOff += n
	for k := range s {
		s[k] = nil
	}
	return s
}

// Sense is the relation of a constraint row to its right-hand side.
type Sense int8

// Constraint senses.
const (
	LE Sense = iota // Aᵢ·x ≤ bᵢ
	EQ              // Aᵢ·x = bᵢ
	GE              // Aᵢ·x ≥ bᵢ
)

// String returns the comparison operator of the sense.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case EQ:
		return "=="
	case GE:
		return ">="
	}
	return fmt.Sprintf("Sense(%d)", int8(s))
}

// Constraint is a single linear constraint. Coeffs must have the problem's
// NumVars entries.
type Constraint struct {
	Coeffs []float64
	Sense  Sense
	RHS    float64
}

// Problem is a linear program in general form. The zero value is unusable;
// populate NumVars, Maximize, and Constraints. Variables are non-negative by
// default; set Free[j] to lift the bound on variable j (Free may be nil or
// shorter than NumVars, missing entries default to false).
type Problem struct {
	NumVars     int
	Maximize    []float64
	Constraints []Constraint
	Free        []bool
}

// AddLE appends coeffs·x ≤ rhs.
func (p *Problem) AddLE(coeffs []float64, rhs float64) {
	p.Constraints = append(p.Constraints, Constraint{Coeffs: coeffs, Sense: LE, RHS: rhs})
}

// AddGE appends coeffs·x ≥ rhs.
func (p *Problem) AddGE(coeffs []float64, rhs float64) {
	p.Constraints = append(p.Constraints, Constraint{Coeffs: coeffs, Sense: GE, RHS: rhs})
}

// AddEQ appends coeffs·x = rhs.
func (p *Problem) AddEQ(coeffs []float64, rhs float64) {
	p.Constraints = append(p.Constraints, Constraint{Coeffs: coeffs, Sense: EQ, RHS: rhs})
}

// Status classifies the outcome of Solve.
type Status int8

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit // iteration cap hit; numerical trouble
)

// String names the solve outcome.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int8(s))
}

// Result is the outcome of Solve. X and Objective are meaningful only when
// Status is Optimal.
type Result struct {
	Status    Status
	X         []float64
	Objective float64
}

const (
	eps     = 1e-9
	feasTol = 1e-7
)

// Solve solves the linear program. It never modifies p.
func Solve(p *Problem) Result {
	// Chaos hook (no-op unless a fault.Plan is installed): an injected error
	// reports IterLimit — exactly how a genuinely degenerate tableau
	// surfaces — so callers exercise their numeric-trouble paths.
	if err := fault.Hit(fault.PointLPSolve); err != nil {
		return Result{Status: IterLimit}
	}
	ar := arenaPool.Get().(*arena)
	ar.reset()
	defer arenaPool.Put(ar)
	res, _, _ := solveCore(p, ar)
	return res
}

// layout records the standard-form column map solveCore built: the x⁺
// column of every original variable and its x⁻ column, or -1 when the
// variable is not free.
type layout struct {
	posCol []int
	negCol []int
}

// expand writes sign·c onto the x⁺ columns of dst and −sign·c onto the x⁻
// columns, leaving every other entry of dst as it was.
func (l layout) expand(dst, c []float64, sign float64) {
	for j, cj := range c {
		dst[l.posCol[j]] = sign * cj
		if l.negCol[j] >= 0 {
			dst[l.negCol[j]] = -sign * cj
		}
	}
}

// solveCore runs the two-phase simplex on a tableau carved from ar and
// returns the final tableau and column map alongside the result, so a
// Solver can copy the optimal basis out before ar is reused. On
// non-Optimal statuses the tableau is not meaningful. Solve is exactly
// fault-hook + pooled-arena + solveCore.
func solveCore(p *Problem, ar *arena) (Result, *tableau, layout) {
	n := p.NumVars
	if len(p.Maximize) != n {
		panic(fmt.Sprintf("lp: objective has %d coefficients, want %d", len(p.Maximize), n))
	}
	for i, c := range p.Constraints {
		if len(c.Coeffs) != n {
			panic(fmt.Sprintf("lp: constraint %d has %d coefficients, want %d", i, len(c.Coeffs), n))
		}
	}

	// --- Standard-form conversion -------------------------------------
	// Column layout: for each original variable j, one column (x⁺) and, when
	// the variable is free, a paired negative column (x⁻). Then one slack or
	// surplus column per inequality, then one artificial per row that needs
	// one (GE and EQ rows, and LE rows whose RHS went negative).
	lay := layout{posCol: ar.ints(n), negCol: ar.ints(n)}
	cols := 0
	for j := 0; j < n; j++ {
		lay.posCol[j] = cols
		cols++
		if j < len(p.Free) && p.Free[j] {
			lay.negCol[j] = cols
			cols++
		} else {
			lay.negCol[j] = -1
		}
	}
	m := len(p.Constraints)
	// Row-normalized copies with non-negative RHS.
	rows := ar.rowPtrs(m)
	rhs := ar.floats(m)
	senses := make([]Sense, m)
	for i, c := range p.Constraints {
		r := ar.floats(cols)
		lay.expand(r, c.Coeffs, 1)
		b, s := c.RHS, c.Sense
		if b < 0 {
			for k := range r {
				r[k] = -r[k]
			}
			b = -b
			switch s {
			case LE:
				s = GE
			case GE:
				s = LE
			}
		}
		rows[i], rhs[i], senses[i] = r, b, s
	}
	slackCol := ar.ints(m)
	for i := range slackCol {
		slackCol[i] = -1
	}
	for i, s := range senses {
		if s == LE || s == GE {
			slackCol[i] = cols
			cols++
		}
	}
	artCol := ar.ints(m)
	numArt := 0
	for i, s := range senses {
		if s == LE {
			artCol[i] = -1
			continue
		}
		artCol[i] = cols
		cols++
		numArt++
	}

	// Tableau: m rows × (cols+1); last column is RHS. basis[i] is the column
	// basic in row i.
	t := ar.rowPtrs(m)
	basis := ar.ints(m)
	for i := 0; i < m; i++ {
		row := ar.floats(cols + 1)
		copy(row, rows[i])
		row[cols] = rhs[i]
		switch senses[i] {
		case LE:
			row[slackCol[i]] = 1
			basis[i] = slackCol[i]
		case GE:
			row[slackCol[i]] = -1
			row[artCol[i]] = 1
			basis[i] = artCol[i]
		case EQ:
			row[artCol[i]] = 1
			basis[i] = artCol[i]
		}
		t[i] = row
	}

	tab := &tableau{t: t, basis: basis, cols: cols}
	red := ar.floats(cols + 1) // reduced-cost row of both phases

	// --- Phase 1: drive artificials out -------------------------------
	if numArt > 0 {
		// Objective: minimize Σ artificials == maximize −Σ artificials.
		obj := ar.floats(cols)
		for i := range artCol {
			if artCol[i] >= 0 {
				obj[artCol[i]] = -1
			}
		}
		z, st := tab.run(obj, red)
		if st != Optimal {
			return Result{Status: IterLimit}, tab, lay
		}
		if z < -feasTol {
			return Result{Status: Infeasible}, tab, lay
		}
		// Pivot any lingering (degenerate, zero-valued) artificials out of
		// the basis, then forbid their columns.
		banned := make([]bool, cols)
		for i := range artCol {
			if artCol[i] >= 0 {
				banned[artCol[i]] = true
			}
		}
		for i := 0; i < m; i++ {
			if !banned[tab.basis[i]] {
				continue
			}
			// If every legal column is zero in this row the constraint is
			// redundant and the artificial stays basic at value 0, which is
			// harmless; otherwise pivot it out.
			for j := 0; j < cols; j++ {
				if banned[j] {
					continue
				}
				if math.Abs(tab.t[i][j]) > eps {
					tab.pivot(i, j, nil)
					break
				}
			}
		}
		tab.banned = banned
	}

	// --- Phase 2: original objective -----------------------------------
	obj := ar.floats(cols)
	lay.expand(obj, p.Maximize, 1)
	z, st := tab.run(obj, red)
	if st != Optimal {
		return Result{Status: st}, tab, lay
	}
	return Result{Status: Optimal, X: tab.solution(lay, ar.floats(cols)), Objective: z}, tab, lay
}

// tableau is the dense simplex working state behind both Solve, which
// carves it from a pooled arena for one call, and Solver, which owns a copy
// and grows it by a row and a column per pushed constraint.
type tableau struct {
	t      [][]float64 // m × (cols+1), RHS last
	basis  []int       // column basic in each row
	cols   int
	banned []bool // columns barred from entering (dead artificials); nil when none
	pivots int    // pivots run has made
}

// reduce sets red (cols+1 long) to obj's reduced costs at the current
// basis: obj less every basic row scaled by its column's cost, with −z in
// the RHS slot.
func (tb *tableau) reduce(red, obj []float64) {
	copy(red, obj)
	red[tb.cols] = 0
	for i, b := range tb.basis {
		if cb := obj[b]; cb != 0 {
			vec.SubScaled(red, cb, tb.t[i][:tb.cols+1])
		}
	}
}

// run maximizes obj over the current tableau from its basis, keeping the
// reduced costs in red (cols+1 long), and returns the objective value.
// Banned columns never enter the basis.
func (tb *tableau) run(obj, red []float64) (float64, Status) {
	m, cols, banned := len(tb.t), tb.cols, tb.banned
	tb.reduce(red, obj)
	maxIter := 200 * (m + cols + 10)
	blandAfter := maxIter / 2
	for iter := 0; iter < maxIter; iter++ {
		// Entering column: most positive reduced cost (Dantzig), switching
		// to Bland's smallest-index rule once degeneracy is suspected.
		enter := -1
		if iter < blandAfter {
			best := eps
			for j := 0; j < cols; j++ {
				if banned != nil && banned[j] {
					continue
				}
				if red[j] > best {
					best, enter = red[j], j
				}
			}
		} else {
			for j := 0; j < cols; j++ {
				if banned != nil && banned[j] {
					continue
				}
				if red[j] > eps {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			return -red[cols], Optimal // optimal; objective is −red[rhs]
		}
		// Ratio test. Bland mode breaks ties on the smallest basis index.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			a := tb.t[i][enter]
			if a <= eps {
				continue
			}
			ratio := tb.t[i][cols] / a
			if ratio < bestRatio-eps ||
				(iter >= blandAfter && ratio < bestRatio+eps && (leave < 0 || tb.basis[i] < tb.basis[leave])) {
				bestRatio, leave = ratio, i
			}
		}
		if leave < 0 {
			return 0, Unbounded
		}
		tb.pivot(leave, enter, red)
		tb.pivots++
	}
	return 0, IterLimit
}

// pivot makes column enter basic in row leave. A non-nil red is the
// reduced-cost row, updated along with the tableau.
func (tb *tableau) pivot(leave, enter int, red []float64) {
	m, cols := len(tb.t), tb.cols
	prow := tb.t[leave][:cols+1]
	inv := 1 / prow[enter]
	for j := range prow {
		prow[j] *= inv
	}
	prow[enter] = 1 // kill rounding residue
	for i := 0; i < m; i++ {
		if i == leave {
			continue
		}
		row := tb.t[i]
		f := row[enter]
		if f == 0 {
			continue
		}
		vec.SubScaled(row[:cols+1], f, prow)
		row[enter] = 0
	}
	tb.basis[leave] = enter
	if red != nil && red[enter] != 0 {
		vec.SubScaled(red, red[enter], prow)
		red[enter] = 0
	}
}

// solution reads the original variables off the basis, with xs (cols long)
// as column-value scratch.
func (tb *tableau) solution(lay layout, xs []float64) []float64 {
	clear(xs)
	for i, b := range tb.basis {
		xs[b] = tb.t[i][tb.cols]
	}
	x := make([]float64, len(lay.posCol))
	for j := range x {
		x[j] = xs[lay.posCol[j]]
		if lay.negCol[j] >= 0 {
			x[j] -= xs[lay.negCol[j]]
		}
	}
	return x
}
