package lp

import (
	"math"
	"math/rand"
	"testing"

	"isrl/internal/fault"
)

// randSimplexProblem builds a regret-query-shaped LP: d non-negative vars on
// the probability simplex, nHS homogeneous halfspace rows, random objective.
func randSimplexProblem(rng *rand.Rand, d, nHS int) *Problem {
	p := &Problem{NumVars: d, Maximize: make([]float64, d)}
	for j := range p.Maximize {
		p.Maximize[j] = rng.Float64()*2 - 1
	}
	ones := make([]float64, d)
	for i := range ones {
		ones[i] = 1
	}
	p.AddEQ(ones, 1)
	for k := 0; k < nHS; k++ {
		p.AddGE(randNormal(rng, d), 0)
	}
	return p
}

func randNormal(rng *rand.Rand, d int) []float64 {
	w := make([]float64, d)
	for j := range w {
		w[j] = rng.Float64()*2 - 1
	}
	return w
}

// assertAgrees checks a warm result against the cold Solve of the same
// accumulated problem: identical status, objective within tolerance, and a
// primal-feasible point.
func assertAgrees(t *testing.T, tag string, warm Result, prob *Problem) {
	t.Helper()
	cold := Solve(prob)
	if warm.Status != cold.Status {
		t.Fatalf("%s: warm status %v, cold %v", tag, warm.Status, cold.Status)
	}
	if warm.Status != Optimal {
		return
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
		t.Fatalf("%s: warm objective %v, cold %v", tag, warm.Objective, cold.Objective)
	}
	for i, c := range prob.Constraints {
		var dot float64
		for j, aj := range c.Coeffs {
			dot += aj * warm.X[j]
		}
		var viol float64
		switch c.Sense {
		case LE:
			viol = dot - c.RHS
		case GE:
			viol = c.RHS - dot
		case EQ:
			viol = math.Abs(dot - c.RHS)
		}
		if viol > 1e-6*(1+math.Abs(c.RHS)) {
			t.Fatalf("%s: warm X violates constraint %d by %v", tag, i, viol)
		}
	}
	for j, xj := range warm.X {
		if j >= len(prob.Free) || !prob.Free[j] {
			if xj < -1e-6 {
				t.Fatalf("%s: warm X[%d] = %v < 0", tag, j, xj)
			}
		}
	}
}

// TestWarmPushMatchesCold drives many random incremental sequences through
// Push and checks every intermediate optimum against a from-scratch solve.
func TestWarmPushMatchesCold(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(5)
		base := randSimplexProblem(rng, d, rng.Intn(4))
		s := NewSolver(base)
		assertAgrees(t, "init", s.Solve(), base)
		for step := 0; step < 25; step++ {
			c := Constraint{Coeffs: randNormal(rng, d), Sense: GE, RHS: 0}
			if rng.Intn(4) == 0 {
				// Occasional inhomogeneous LE rows exercise negative-RHS
				// handling in the dual repair.
				c = Constraint{Coeffs: randNormal(rng, d), Sense: LE, RHS: rng.Float64() - 0.3}
			}
			res := s.Push(c)
			base.Constraints = append(base.Constraints, c)
			assertAgrees(t, "push", res, base)
			if res.Status == Infeasible {
				break
			}
		}
	}
}

// TestWarmSolveWithMatchesCold interleaves objective changes and pushes.
func TestWarmSolveWithMatchesCold(t *testing.T) {
	for seed := int64(100); seed < 140; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(5)
		base := randSimplexProblem(rng, d, 1+rng.Intn(3))
		s := NewSolver(base)
		s.Solve()
		for step := 0; step < 30; step++ {
			if rng.Intn(3) == 0 {
				c := Constraint{Coeffs: randNormal(rng, d), Sense: GE, RHS: 0}
				res := s.Push(c)
				base.Constraints = append(base.Constraints, c)
				assertAgrees(t, "push", res, base)
				if res.Status == Infeasible {
					break
				}
				continue
			}
			obj := randNormal(rng, d)
			res := s.SolveWith(obj)
			base.Maximize = obj
			assertAgrees(t, "solvewith", res, base)
		}
	}
}

// TestWarmInfeasibleSticky verifies that once a push proves the system
// infeasible, later pushes answer Infeasible without solving.
func TestWarmInfeasibleSticky(t *testing.T) {
	d := 3
	base := randSimplexProblem(rand.New(rand.NewSource(1)), d, 0)
	s := NewSolver(base)
	s.Solve()
	// x₀ ≥ 0.9 and x₀ ≤ 0.1 cannot both hold on the simplex.
	if res := s.Push(Constraint{Coeffs: []float64{1, 0, 0}, Sense: GE, RHS: 0.9}); res.Status != Optimal {
		t.Fatalf("first push: %v", res.Status)
	}
	if res := s.Push(Constraint{Coeffs: []float64{1, 0, 0}, Sense: LE, RHS: 0.1}); res.Status != Infeasible {
		t.Fatalf("conflicting push: %v, want infeasible", res.Status)
	}
	if res := s.Push(Constraint{Coeffs: []float64{0, 1, 0}, Sense: GE, RHS: 0}); res.Status != Infeasible {
		t.Fatalf("push after infeasible: %v, want sticky infeasible", res.Status)
	}
	if res := s.SolveWith([]float64{0, 0, 1}); res.Status != Infeasible {
		t.Fatalf("solvewith after infeasible: %v, want sticky infeasible", res.Status)
	}
}

// TestWarmFaultFallsBackCold proves the lp.warm fault point downgrades every
// warm operation to the cold path — whose results are bit-identical to Solve
// on the same accumulated problem — rather than corrupting state.
func TestWarmFaultFallsBackCold(t *testing.T) {
	fault.Install(fault.NewPlan(7).Set(fault.PointLPWarm, fault.Spec{ErrProb: 1}))
	defer fault.Install(nil)

	rng := rand.New(rand.NewSource(42))
	d := 4
	base := randSimplexProblem(rng, d, 2)
	s := NewSolver(base)
	for step := 0; step < 10; step++ {
		c := Constraint{Coeffs: randNormal(rng, d), Sense: GE, RHS: 0}
		res := s.Push(c)
		base.Constraints = append(base.Constraints, c)
		cold := Solve(base)
		if res.Status != cold.Status {
			t.Fatalf("step %d: status %v, cold %v", step, res.Status, cold.Status)
		}
		if res.Status == Optimal {
			if res.Objective != cold.Objective {
				t.Fatalf("step %d: fallback objective %v not bit-identical to cold %v", step, res.Objective, cold.Objective)
			}
			for j := range res.X {
				if res.X[j] != cold.X[j] {
					t.Fatalf("step %d: fallback X[%d] %v != cold %v", step, j, res.X[j], cold.X[j])
				}
			}
		}
		if res.Status == Infeasible {
			break
		}
	}
	if got := fault.Installed().Injections(fault.PointLPWarm); got == 0 {
		t.Fatal("fault plan armed but lp.warm never injected")
	}
}

// TestWarmColdInitHitsLPSolveFault: a plan poisoning lp.solve must poison a
// solver's lazy cold init too, so chaos runs degrade warm and cold users
// alike.
func TestWarmColdInitHitsLPSolveFault(t *testing.T) {
	fault.Install(fault.NewPlan(7).Set(fault.PointLPSolve, fault.Spec{ErrProb: 1}))
	defer fault.Install(nil)
	s := NewSolver(randSimplexProblem(rand.New(rand.NewSource(3)), 3, 2))
	if res := s.Solve(); res.Status != IterLimit {
		t.Fatalf("poisoned cold init returned %v, want iteration-limit", res.Status)
	}
}

// TestWarmRefactorization pushes past the refactorization interval and
// checks the periodic cold rebuild keeps answers correct.
func TestWarmRefactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := 6
	base := randSimplexProblem(rng, d, 0)
	s := NewSolver(base)
	s.Solve()
	for step := 0; step < refactorEvery+8; step++ {
		// Very shallow cuts keep the polytope feasible for many rounds.
		w := randNormal(rng, d)
		for j := range w {
			w[j] = w[j]*0.05 + 1.0/float64(d)
		}
		c := Constraint{Coeffs: w, Sense: GE, RHS: 0}
		res := s.Push(c)
		base.Constraints = append(base.Constraints, c)
		assertAgrees(t, "refactor", res, base)
		if res.Status != Optimal {
			break
		}
	}
}

// TestWarmSolveWithCountsPivots checks that a warm re-solve which ends at a
// different vertex — so it must have pivoted — shows those pivots in
// lp.warm.primal_pivots.
func TestWarmSolveWithCountsPivots(t *testing.T) {
	moved := 0
	for seed := int64(300); seed < 320; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := 3 + rng.Intn(3)
		s := NewSolver(randSimplexProblem(rng, d, 2))
		prev := s.Solve()
		for step := 0; step < 10 && prev.Status == Optimal; step++ {
			hits, primal, dual := warmHits.Value(), warmPrimalPivots.Value(), warmPivots.Value()
			res := s.SolveWith(randNormal(rng, d))
			if res.Status == Optimal && warmHits.Value() > hits && !sameX(res.X, prev.X) {
				moved++
				if warmPrimalPivots.Value() == primal {
					t.Fatalf("seed %d step %d: warm re-solve moved from %v to %v but lp.warm.primal_pivots stayed %d (lp.warm.pivots %d → %d)",
						seed, step, prev.X, res.X, primal, dual, warmPivots.Value())
				}
			}
			prev = res
		}
	}
	if moved == 0 {
		t.Fatal("no warm re-solve moved to another vertex")
	}
}

func sameX(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}
