package isrl

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"isrl/internal/aa"
	"isrl/internal/baselines"
	"isrl/internal/core"
	"isrl/internal/dataset"
	"isrl/internal/ea"
	"isrl/internal/fault"
)

// chaosDataset is a small low-dimensional skyline usable by every algorithm
// (EA's exact polytope needs d small).
func chaosDataset() *dataset.Dataset {
	return dataset.Anticorrelated(rand.New(rand.NewSource(7)), 300, 3).Skyline()
}

// runGuarded runs alg against user with a hard timeout, converting panics
// and hangs into test failures. Returns the result when the run terminates.
func runGuarded(t *testing.T, alg core.Algorithm, ds *dataset.Dataset, user core.User, eps float64, limit time.Duration) core.Result {
	t.Helper()
	type outcome struct {
		res core.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: fmt.Errorf("panic escaped %s: %v", alg.Name(), r)}
			}
		}()
		res, err := alg.Run(ds, user, eps, nil)
		ch <- outcome{res: res, err: err}
	}()
	select {
	case out := <-ch:
		if out.err != nil {
			t.Fatalf("%s: %v", alg.Name(), out.err)
		}
		return out.res
	case <-time.After(limit):
		t.Fatalf("%s did not terminate within %s under noise", alg.Name(), limit)
		return core.Result{}
	}
}

// TestNoisyOracleTermination is the satellite's table-driven suite: EA, AA
// and a baseline driven by a noisy user (seeded flips at 5% and 20%) must
// terminate with either a valid result or an explicitly Degraded one —
// never panic, never hang.
func TestNoisyOracleTermination(t *testing.T) {
	ds := chaosDataset()
	const eps = 0.1
	algos := []struct {
		name string
		mk   func(seed int64) core.Algorithm
	}{
		{"EA", func(seed int64) core.Algorithm {
			return ea.New(ds, eps, ea.Config{MaxRounds: 60}, rand.New(rand.NewSource(seed)))
		}},
		{"AA", func(seed int64) core.Algorithm {
			return aa.New(ds, eps, aa.Config{MaxRounds: 60}, rand.New(rand.NewSource(seed)))
		}},
		{"UH-Random", func(seed int64) core.Algorithm {
			return baselines.NewUHRandom(baselines.UHConfig{MaxRounds: 60}, rand.New(rand.NewSource(seed)))
		}},
	}
	for _, a := range algos {
		for _, flip := range []float64{0.05, 0.2} {
			a, flip := a, flip
			t.Run(fmt.Sprintf("%s/flip=%v", a.name, flip), func(t *testing.T) {
				truth := core.SimulatedUser{Utility: []float64{0.2, 0.5, 0.3}}
				noisy := fault.NewNoisyUser(truth, flip, 42)
				res := runGuarded(t, a.mk(1), ds, noisy, eps, 60*time.Second)
				if res.PointIndex < 0 || res.PointIndex >= ds.Len() {
					t.Fatalf("invalid point index %d (degraded=%v reason=%q)",
						res.PointIndex, res.Degraded, res.DegradedReason)
				}
				if res.Degraded && res.DegradedReason == "" {
					t.Error("degraded result must carry a reason")
				}
				if noisy.Asks() == 0 {
					t.Error("noisy oracle was never consulted")
				}
				t.Logf("%s flip=%v: rounds=%d degraded=%v flips=%d/%d reason=%q",
					a.name, flip, res.Rounds, res.Degraded, noisy.Flips(), noisy.Asks(), res.DegradedReason)
			})
		}
	}
}

// TestChaosSessionOraclePanicContained: a panic injected at the session
// oracle boundary must surface as a *core.PanicError from Result, not kill
// the process.
func TestChaosSessionOraclePanicContained(t *testing.T) {
	fault.Install(fault.NewPlan(5).Set(fault.PointOracle, fault.Spec{PanicProb: 1}))
	defer fault.Install(nil)

	ds := chaosDataset()
	alg := baselines.NewUHRandom(baselines.UHConfig{MaxRounds: 60}, rand.New(rand.NewSource(3)))
	s := core.NewSession(context.Background(), alg, ds, 0.1, nil)
	defer s.Close()

	// The first oracle call panics before the question is published, so the
	// session is done immediately.
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, _, done := s.Next()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never finished after injected oracle panic")
		}
		if err := s.Answer(true); err != nil {
			break
		}
	}
	_, err := s.Result()
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *core.PanicError from Result, got %v", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("contained panic should carry a stack trace")
	}
}

// TestChaosLPFaultDegradesAA: when every LP solve is poisoned, AA's
// inner-ball computation fails from round one and the run must come back as
// an explicit best-effort degraded result, not an error or a hang.
func TestChaosLPFaultDegradesAA(t *testing.T) {
	fault.Install(fault.NewPlan(6).Set(fault.PointLPSolve, fault.Spec{ErrProb: 1}))
	defer fault.Install(nil)

	ds := chaosDataset()
	alg := aa.New(ds, 0.1, aa.Config{MaxRounds: 60}, rand.New(rand.NewSource(4)))
	res := runGuarded(t, alg, ds, core.SimulatedUser{Utility: []float64{0.3, 0.3, 0.4}}, 0.1, 60*time.Second)
	if !res.Degraded {
		t.Fatalf("expected degraded result with all LPs failing, got %+v", res)
	}
	if res.PointIndex < 0 || res.PointIndex >= ds.Len() {
		t.Fatalf("degraded result has invalid index %d", res.PointIndex)
	}
}

// TestChaosVertexPanicGuardedEA: a panic injected inside EA's per-round
// geometry is contained by the core.Guard boundary and converted into a
// degraded result with the recovery counted on the Result itself.
func TestChaosVertexPanicGuardedEA(t *testing.T) {
	fault.Install(fault.NewPlan(8).Set(fault.PointVertices, fault.Spec{PanicProb: 1}))
	defer fault.Install(nil)

	ds := chaosDataset()
	alg := ea.New(ds, 0.1, ea.Config{MaxRounds: 60}, rand.New(rand.NewSource(9)))
	res := runGuarded(t, alg, ds, core.SimulatedUser{Utility: []float64{0.25, 0.25, 0.5}}, 0.1, 60*time.Second)
	if !res.Degraded {
		t.Fatalf("expected degraded result after guarded panic, got %+v", res)
	}
	if res.PanicsRecovered == 0 {
		t.Error("Result.PanicsRecovered should count the contained panic")
	}
	if res.PointIndex < 0 || res.PointIndex >= ds.Len() {
		t.Fatalf("degraded result has invalid index %d", res.PointIndex)
	}
}

// TestChaosReplayDeterministic: the same seed and single-threaded drive
// produce the identical fault sequence — chaos runs are regressions, not
// flakes.
func TestChaosReplayDeterministic(t *testing.T) {
	run := func() (int, int, bool) {
		plan := fault.NewPlan(21).Set(fault.PointVertices, fault.Spec{ErrProb: 0.3})
		fault.Install(plan)
		defer fault.Install(nil)
		ds := chaosDataset()
		alg := baselines.NewUHSimplex(baselines.UHConfig{MaxRounds: 60}, rand.New(rand.NewSource(2)))
		res := runGuarded(t, alg, ds, core.SimulatedUser{Utility: []float64{0.2, 0.5, 0.3}}, 0.1, 60*time.Second)
		return plan.Hits(fault.PointVertices), plan.Injections(fault.PointVertices), res.Degraded
	}
	h1, i1, d1 := run()
	h2, i2, d2 := run()
	if h1 != h2 || i1 != i2 || d1 != d2 {
		t.Fatalf("seeded chaos run not reproducible: (%d,%d,%v) vs (%d,%d,%v)", h1, i1, d1, h2, i2, d2)
	}
}
