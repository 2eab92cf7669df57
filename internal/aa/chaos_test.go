package aa

import (
	"math/rand"
	"testing"

	"isrl/internal/core"
	"isrl/internal/fault"
)

// A panic injected into the engine's warm LP solver must flow through
// safeRound's core.Guard into a Degraded result: the process survives and
// the session still answers with a best-effort point.
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
