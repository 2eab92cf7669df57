package aa

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"isrl/internal/core"
	"isrl/internal/fault"
)

// A panic injected into the engine's warm LP solver must flow through the
// per-round core.Guard of core.Loop into a Degraded result: the process
// survives and the session still answers with a best-effort point.
func TestChaosInjectedLPPanicDegrades(t *testing.T) {
	ds := testData(t, 300, 3, 61)
	a := New(ds, 0.1, smallCfg(), rand.New(rand.NewSource(62)))
	// After skips the session's first warm re-solves (the outer rectangle)
	// so the armed panic lands during the candidate feasibility probes.
	plan := fault.NewPlan(63).Set(fault.PointLPWarm, fault.Spec{PanicProb: 1, After: 12})
	fault.Install(plan)
	defer fault.Install(nil)
	res, err := a.Run(ds, core.SimulatedUser{Utility: []float64{0.3, 0.4, 0.3}}, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Injections(fault.PointLPWarm) == 0 {
		t.Fatal("warm-LP panic was never injected")
	}
	if !res.Degraded {
		t.Fatalf("expected degraded result, got %+v", res)
	}
	if res.PanicsRecovered == 0 {
		t.Fatal("expected at least one contained panic")
	}
	if res.Point == nil {
		t.Fatal("best-effort result missing a point")
	}
}

// Training rounds run under the same Guard: a panic in a training round
// aborts Train with an error naming the episode instead of crashing the
// trainer.
func TestChaosTrainingPanicIsError(t *testing.T) {
	ds := testData(t, 300, 3, 61)
	rng := rand.New(rand.NewSource(64))
	a := New(ds, 0.1, smallCfg(), rng)
	users := [][]float64{{0.3, 0.4, 0.3}, {0.5, 0.2, 0.3}}
	fault.Install(fault.NewPlan(65).Set(fault.PointLPWarm, fault.Spec{PanicProb: 1}))
	defer fault.Install(nil)
	_, err := a.Train(users)
	var pe *core.PanicError
	if err == nil || !errors.As(err, &pe) || !strings.Contains(err.Error(), "aa: training episode 0: ") {
		t.Fatalf("Train returned %v, want a contained panic in training episode 0", err)
	}
}
