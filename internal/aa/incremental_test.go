package aa

import (
	"fmt"
	"math/rand"
	"testing"

	"isrl/internal/core"
	"isrl/internal/fault"
	"isrl/internal/obs"
)

// runSeeded executes one seeded AA session and returns its result. Each call
// builds a fresh AA so the RNG stream starts from the same state. With
// scratch set, the lp.warm fault fails every warm re-solve, so each LP the
// engine runs is a cold solve of the problem the from-scratch code builds,
// and the run is the reference the engine must reproduce; the test fails if
// the fault never fired.
func runSeeded(t *testing.T, scratch bool, dataSeed, rngSeed int64, u []float64) core.Result {
	t.Helper()
	ds := testData(t, 300, len(u), dataSeed)
	var plan *fault.Plan
	if scratch {
		plan = fault.NewPlan(23).Set(fault.PointLPWarm, fault.Spec{ErrProb: 1})
		fault.Install(plan)
		defer fault.Install(nil)
	}
	a := New(ds, 0.1, smallCfg(), rand.New(rand.NewSource(rngSeed)))
	res, err := a.Run(ds, core.SimulatedUser{Utility: u}, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		if plan.Injections(fault.PointLPWarm) == 0 {
			t.Fatal("warm-LP fault was never exercised")
		}
		if res.Degraded {
			t.Fatalf("warm-LP faults must degrade to cold solves, not the session: %+v", res)
		}
	}
	return res
}

func sameResult(t *testing.T, label string, a, b core.Result) {
	t.Helper()
	if a.PointIndex != b.PointIndex || a.Rounds != b.Rounds || a.Degraded != b.Degraded {
		t.Fatalf("%s: results diverge: point %d/%d rounds %d/%d degraded %v/%v",
			label, a.PointIndex, b.PointIndex, a.Rounds, b.Rounds, a.Degraded, b.Degraded)
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("%s: trace lengths differ: %d vs %d", label, len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("%s: trace entry %d differs: %+v vs %+v", label, i, a.Trace[i], b.Trace[i])
		}
	}
}

// AA's engine contract is weaker than EA's (warm LP re-solves agree with
// cold solves only to solver tolerance, so a knife-edge tie could in
// principle flip), but on these fixed seeds the sessions are validated to
// track the warm-fault reference exactly: same questions, same rounds, same
// tuple — the proof that the warm path is an optimization, not a dependency.
func TestEngineMatchesScratchFixedSeeds(t *testing.T) {
	for _, c := range []struct {
		dataSeed, rngSeed int64
		u                 []float64
	}{
		{500, 600, []float64{0.55, 0.3, 0.15}},
		{501, 601, []float64{0.2, 0.5, 0.3}},
		{502, 602, []float64{0.4, 0.1, 0.3, 0.2}},
		{700, 701, []float64{0.35, 0.25, 0.4}},
	} {
		t.Run(fmt.Sprintf("seed%d_d%d", c.dataSeed, len(c.u)), func(t *testing.T) {
			inc := runSeeded(t, false, c.dataSeed, c.rngSeed, c.u)
			scr := runSeeded(t, true, c.dataSeed, c.rngSeed, c.u)
			sameResult(t, "engine vs scratch", inc, scr)
		})
	}
}

// runWitness executes one seeded AA session like runSeeded, with
// geom.inc.witness failing every outer-rectangle pass when reference is set,
// so each rectangle objective is re-solved instead of served from its
// witness; the test fails if that fault never fired. A noisy session draws
// its flips from its own seeded stream.
func runWitness(t *testing.T, reference bool, dataSeed, rngSeed int64, u []float64, noisy bool) core.Result {
	t.Helper()
	ds := testData(t, 300, len(u), dataSeed)
	cfg := smallCfg()
	var user core.User = core.SimulatedUser{Utility: u}
	if noisy {
		user = core.NoisyUser{Utility: u, FlipProb: 0.3, Rng: rand.New(rand.NewSource(rngSeed + 1))}
	}
	var plan *fault.Plan
	if reference {
		plan = fault.NewPlan(29).Set(fault.PointIncWitness, fault.Spec{ErrProb: 1})
		fault.Install(plan)
		defer fault.Install(nil)
	}
	a := New(ds, 0.1, cfg, rand.New(rand.NewSource(rngSeed)))
	res, err := a.Run(ds, user, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil && plan.Injections(fault.PointIncWitness) == 0 {
		t.Fatal("witness fault was never injected")
	}
	return res
}

// Outer-rectangle witnesses are an optimization, not a dependency: serving
// sessions with every witness reused and with every rectangle objective
// re-solved ask the same questions and return the same tuple. AA only asks
// questions whose hyperplane splits R, so a flipped answer never empties the
// range and the noisy session exercises witnesses under contradictory cuts;
// the reset on range growth is pinned in internal/geom.
func TestWitnessFaultMatchesFixedSeeds(t *testing.T) {
	for _, c := range []struct {
		dataSeed, rngSeed int64
		u                 []float64
		noisy             bool
	}{
		{500, 600, []float64{0.55, 0.3, 0.15}, false},
		{502, 602, []float64{0.4, 0.1, 0.3, 0.2}, false},
		{703, 704, []float64{0.2, 0.15, 0.25, 0.1, 0.3}, false},
		{11, 12, []float64{0.3, 0.45, 0.25}, true},
	} {
		t.Run(fmt.Sprintf("seed%d_d%d_noisy%v", c.dataSeed, len(c.u), c.noisy), func(t *testing.T) {
			hits := obs.Default().Counter("geom.inc.rect_witness_hits")
			before := hits.Value()
			got := runWitness(t, false, c.dataSeed, c.rngSeed, c.u, c.noisy)
			if hits.Value() == before {
				t.Fatal("session reused no outer-rectangle witness")
			}
			want := runWitness(t, true, c.dataSeed, c.rngSeed, c.u, c.noisy)
			sameResult(t, "witnesses vs reference", got, want)
		})
	}
}
