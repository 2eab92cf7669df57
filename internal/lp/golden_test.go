package lp

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// goldenProgram builds a seeded program of the interactive loop's shape: d
// non-negative variables on the probability simplex, cut by homogeneous
// halfspaces pᵢ − pⱼ that a hidden utility satisfies, so the program stays
// feasible however many cuts it takes. With slack, a free variable t joins
// every cut row as n·x − t ≥ 0, capped by t ≤ 1: the feasibility-margin
// shape, which takes the free-column (x⁺/x⁻) path.
type goldenProgram struct {
	rng   *rand.Rand
	d     int
	u     []float64
	slack bool
}

func newGoldenProgram(seed int64, d int, slack bool) *goldenProgram {
	g := &goldenProgram{rng: rand.New(rand.NewSource(seed)), d: d, slack: slack}
	g.u = make([]float64, d)
	var s float64
	for i := range g.u {
		g.u[i] = g.rng.ExpFloat64()
		s += g.u[i]
	}
	for i := range g.u {
		g.u[i] /= s
	}
	return g
}

func (g *goldenProgram) vars() int {
	if g.slack {
		return g.d + 1
	}
	return g.d
}

// cut returns the next halfspace row: the difference of two random points,
// oriented so the hidden utility satisfies it.
func (g *goldenProgram) cut() Constraint {
	w := make([]float64, g.vars())
	var wu float64
	for i := 0; i < g.d; i++ {
		w[i] = g.rng.Float64() - g.rng.Float64()
		wu += w[i] * g.u[i]
	}
	if wu < 0 {
		for i := 0; i < g.d; i++ {
			w[i] = -w[i]
		}
	}
	if g.slack {
		w[g.d] = -1
	}
	return Constraint{Coeffs: w, Sense: GE, RHS: 0}
}

func (g *goldenProgram) problem(cuts int) *Problem {
	n := g.vars()
	p := &Problem{NumVars: n, Maximize: make([]float64, n)}
	for j := range p.Maximize {
		p.Maximize[j] = g.rng.NormFloat64()
	}
	ones := make([]float64, n)
	for i := 0; i < g.d; i++ {
		ones[i] = 1
	}
	p.AddEQ(ones, 1)
	if g.slack {
		p.Free = make([]bool, n)
		p.Free[g.d] = true
		cap := make([]float64, n)
		cap[g.d] = 1
		p.AddLE(cap, 1)
	}
	for k := 0; k < cuts; k++ {
		p.Constraints = append(p.Constraints, g.cut())
	}
	return p
}

// hashResult feeds every bit of r into h: status, objective and X.
func hashResult(h hash.Hash64, r Result) {
	var buf [8]byte
	h.Write([]byte{byte(r.Status)})
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r.Objective))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(len(r.X)))
	h.Write(buf[:])
	for _, x := range r.X {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
}

// rectWalk is the outer-rectangle pass: max and min of every utility
// coordinate, one SolveWith each on the same warm basis.
func rectWalk(h hash.Hash64, s *Solver, d, n int) {
	obj := make([]float64, n)
	for i := 0; i < d; i++ {
		for _, sign := range []float64{1, -1} {
			clear(obj)
			obj[i] = sign
			hashResult(h, s.SolveWith(obj))
		}
	}
}

// Every Result the solver returns — cold solves, warm primal re-solves and
// dual-simplex pushes — is a fixed function of the program. The hash pins
// every bit of every result over seeded programs at d ∈ {4, 20}, with and
// without a free column, so a change to how a pivot rounds shows here
// before it shows in a trained model.
func TestResultsMatchGolden(t *testing.T) {
	h := fnv.New64a()
	results := 0
	for _, d := range []int{4, 20} {
		for _, slack := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				g := newGoldenProgram(seed*100+int64(d), d, slack)
				p := g.problem(2 * d)
				hashResult(h, Solve(p))
				s := NewSolver(p)
				hashResult(h, s.Solve())
				rectWalk(h, s, d, g.vars())
				for k := 1; k <= 30; k++ {
					hashResult(h, s.Push(g.cut()))
					if k%10 == 0 {
						rectWalk(h, s, d, g.vars())
					}
				}
				hashResult(h, Solve(&s.prob))
				results += 2 + 4*2*d + 30 + 1
			}
		}
	}
	if results != 1548 {
		t.Fatalf("hashed %d results, want 1548", results)
	}
	const want uint64 = 0xf936e84d671b9bcf
	if got := h.Sum64(); got != want {
		t.Fatalf("result hash %#x, want %#x", got, want)
	}
}

// solverWalk drives one seeded Solver over the golden program's shape: a
// cold solve and 40 pushed cuts (the 32nd refactorizes cold), with an
// outer-rectangle pass after the cold solve and after every 8th cut. It
// returns every Result in order.
func solverWalk(seed int64, d int, slack bool) []Result {
	g := newGoldenProgram(seed, d, slack)
	s := NewSolver(g.problem(2 * d))
	out := []Result{s.Solve()}
	obj := make([]float64, g.vars())
	for k := 0; k <= 40; k++ {
		if k > 0 {
			out = append(out, s.Push(g.cut()))
		}
		if k%8 != 0 {
			continue
		}
		for i := 0; i < d; i++ {
			for _, sign := range []float64{1, -1} {
				clear(obj)
				obj[i] = sign
				out = append(out, s.SolveWith(obj))
			}
		}
	}
	return out
}

// firstBitDiff returns the index of the first Result whose status,
// objective or X bits differ between a and b, or -1 when none does.
func firstBitDiff(a, b []Result) int {
	for k := range a {
		if k >= len(b) {
			return k
		}
		same := a[k].Status == b[k].Status &&
			math.Float64bits(a[k].Objective) == math.Float64bits(b[k].Objective) &&
			len(a[k].X) == len(b[k].X)
		for j := 0; same && j < len(a[k].X); j++ {
			same = math.Float64bits(a[k].X[j]) == math.Float64bits(b[k].X[j])
		}
		if !same {
			return k
		}
	}
	if len(b) > len(a) {
		return len(a)
	}
	return -1
}

// Solve and a Solver's cold solves borrow their tableaux from one package
// arena pool, and a Solver keeps only what it copied out. Solver walks run
// on several goroutines while others call Solve on programs of other sizes,
// and every Result must carry the bits of the same walk or solve run
// serially: a tableau that still pointed into a returned arena would be
// overwritten by whichever solve borrowed it next.
func TestConcurrentSolversMatchSerial(t *testing.T) {
	type walk struct {
		seed  int64
		d     int
		slack bool
	}
	var walks []walk
	for _, d := range []int{4, 12} {
		for _, slack := range []bool{false, true} {
			walks = append(walks, walk{int64(10*d + len(walks)), d, slack})
		}
	}
	var probs []*Problem
	for _, d := range []int{3, 8, 20} {
		probs = append(probs, newGoldenProgram(int64(d), d, d == 8).problem(3*d))
	}
	solveAll := func() []Result {
		out := make([]Result, len(probs))
		for i, p := range probs {
			out[i] = Solve(p)
		}
		return out
	}

	wantWalks := make([][]Result, len(walks))
	for i, w := range walks {
		wantWalks[i] = solverWalk(w.seed, w.d, w.slack)
	}
	wantSolves := solveAll()

	const reps = 3
	var wg sync.WaitGroup
	errs := make(chan string, len(walks)+2)
	for i, w := range walks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				if k := firstBitDiff(solverWalk(w.seed, w.d, w.slack), wantWalks[i]); k >= 0 {
					errs <- fmt.Sprintf("walk %+v, rep %d: result %d differs from the serial walk", w, r, k)
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 10*reps; r++ {
				if k := firstBitDiff(solveAll(), wantSolves); k >= 0 {
					errs <- fmt.Sprintf("Solve goroutine %d, rep %d: program %d differs from the serial solve", g, r, k)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
