package baselines

import (
	"math/rand"
	"strings"
	"testing"

	"isrl/internal/core"
	"isrl/internal/dataset"
	"isrl/internal/geom"
)

func testData(t *testing.T, n, d int, seed int64) *dataset.Dataset {
	t.Helper()
	ds := dataset.Anticorrelated(rand.New(rand.NewSource(seed)), n, d).Skyline()
	if ds.Len() < 5 {
		t.Fatalf("test dataset too small: %d", ds.Len())
	}
	return ds
}

// All polytope-based baselines must meet the exactness contract: returned
// regret ≤ ε under a truthful user.
func TestUHExactness(t *testing.T) {
	ds := testData(t, 300, 3, 1)
	rng := rand.New(rand.NewSource(2))
	algos := []core.Algorithm{
		NewUHRandom(UHConfig{}, rand.New(rand.NewSource(3))),
		NewUHSimplex(UHConfig{}, rand.New(rand.NewSource(99))),
	}
	for _, alg := range algos {
		for trial := 0; trial < 5; trial++ {
			u := geom.SampleSimplex(rng, 3)
			res, err := alg.Run(ds, core.SimulatedUser{Utility: u}, 0.1, nil)
			if err != nil {
				t.Fatalf("%s: %v", alg.Name(), err)
			}
			if rr := ds.RegretRatio(res.Point, u); rr > 0.1+1e-9 {
				t.Errorf("%s trial %d: regret %v > eps", alg.Name(), trial, rr)
			}
			if res.Rounds <= 0 || res.Rounds >= 1000 {
				t.Errorf("%s: rounds = %d", alg.Name(), res.Rounds)
			}
			if len(res.Trace) != res.Rounds {
				t.Errorf("%s: trace %d != rounds %d", alg.Name(), len(res.Trace), res.Rounds)
			}
		}
	}
}

// The greedy variant should not be (systematically) worse than random.
func TestSimplexBeatsOrMatchesRandom(t *testing.T) {
	ds := testData(t, 400, 3, 4)
	rng := rand.New(rand.NewSource(5))
	randTotal, simpTotal := 0, 0
	simplex := NewUHSimplex(UHConfig{}, rand.New(rand.NewSource(99)))
	for trial := 0; trial < 8; trial++ {
		u := geom.SampleSimplex(rng, 3)
		random := NewUHRandom(UHConfig{}, rand.New(rand.NewSource(int64(trial))))
		rr, err := random.Run(ds, core.SimulatedUser{Utility: u}, 0.1, nil)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := simplex.Run(ds, core.SimulatedUser{Utility: u}, 0.1, nil)
		if err != nil {
			t.Fatal(err)
		}
		randTotal += rr.Rounds
		simpTotal += rs.Rounds
	}
	if simpTotal > randTotal*2 {
		t.Errorf("UH-Simplex (%d rounds) much worse than UH-Random (%d)", simpTotal, randTotal)
	}
}

func TestUHObserver(t *testing.T) {
	ds := testData(t, 200, 3, 6)
	rng := rand.New(rand.NewSource(7))
	alg := NewUHRandom(UHConfig{}, rng)
	var calls int
	res, err := alg.Run(ds, core.SimulatedUser{Utility: geom.SampleSimplex(rng, 3)}, 0.1,
		core.ObserverFunc(func(r int, hs []geom.Halfspace) { calls = r }))
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Rounds {
		t.Errorf("observer %d != rounds %d", calls, res.Rounds)
	}
}

func TestSinglePassReturnsGoodChampion(t *testing.T) {
	ds := testData(t, 400, 3, 8)
	rng := rand.New(rand.NewSource(9))
	var avg float64
	const trials = 5
	for trial := 0; trial < trials; trial++ {
		u := geom.SampleSimplex(rng, 3)
		sp := NewSinglePass(SinglePassConfig{}, rand.New(rand.NewSource(int64(trial))))
		res, err := sp.Run(ds, core.SimulatedUser{Utility: u}, 0.1, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The champion beat everything it was compared against; with a
		// truthful user its regret is tiny in practice.
		avg += ds.RegretRatio(res.Point, u)
		if res.Rounds <= 0 {
			t.Errorf("trial %d: no questions asked", trial)
		}
	}
	if avg/trials > 0.1 {
		t.Errorf("average SinglePass regret %v too high", avg/trials)
	}
}

// SinglePass must ask far more questions than the UH family on the same
// data — the core phenomenon in the paper's Figures 9–10.
func TestSinglePassAsksMore(t *testing.T) {
	ds := testData(t, 600, 4, 10)
	rng := rand.New(rand.NewSource(11))
	u := geom.SampleSimplex(rng, 4)
	sp := NewSinglePass(SinglePassConfig{}, rand.New(rand.NewSource(12)))
	spRes, err := sp.Run(ds, core.SimulatedUser{Utility: u}, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	uh := NewUHSimplex(UHConfig{}, rand.New(rand.NewSource(99)))
	uhRes, err := uh.Run(ds, core.SimulatedUser{Utility: u}, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if spRes.Rounds <= uhRes.Rounds {
		t.Errorf("SinglePass rounds %d ≤ UH-Simplex rounds %d; expected many more", spRes.Rounds, uhRes.Rounds)
	}
}

// SinglePass works in high dimension (no polytope) — the d=20 regime.
func TestSinglePassHighDim(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	full := dataset.Independent(rng, 300, 20)
	u := geom.SampleSimplex(rng, 20)
	sp := NewSinglePass(SinglePassConfig{}, rng)
	res, err := sp.Run(full, core.SimulatedUser{Utility: u}, 0.15, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds <= 0 {
		t.Error("no questions asked at d=20")
	}
	if rr := full.RegretRatio(res.Point, u); rr > 0.3 {
		t.Errorf("regret %v too high", rr)
	}
}

func TestUtilityApproxFindsGoodPoint(t *testing.T) {
	ds := testData(t, 400, 3, 14)
	rng := rand.New(rand.NewSource(15))
	ua := NewUtilityApprox(UtilityApproxConfig{})
	var avg float64
	const trials = 6
	for trial := 0; trial < trials; trial++ {
		u := geom.SampleSimplex(rng, 3)
		res, err := ua.Run(ds, core.SimulatedUser{Utility: u}, 0.1, nil)
		if err != nil {
			t.Fatal(err)
		}
		avg += ds.RegretRatio(res.Point, u)
		if res.Rounds <= 0 {
			t.Error("no questions asked")
		}
		// Fake-tuple trace marks its artificial questions.
		for _, qa := range res.Trace {
			if qa.I != -1 || qa.J != -1 {
				t.Error("UtilityApprox must mark fake tuples with index -1")
			}
		}
	}
	if avg/trials > 0.15 {
		t.Errorf("average UtilityApprox regret %v too high", avg/trials)
	}
}

// UtilityApprox's rounds scale with d·log(1/ε): more rounds for tighter ε.
func TestUtilityApproxEpsSensitivity(t *testing.T) {
	ds := testData(t, 200, 4, 16)
	rng := rand.New(rand.NewSource(17))
	u := geom.SampleSimplex(rng, 4)
	ua := NewUtilityApprox(UtilityApproxConfig{})
	tight, err := ua.Run(ds, core.SimulatedUser{Utility: u}, 0.02, nil)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := ua.Run(ds, core.SimulatedUser{Utility: u}, 0.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Rounds <= loose.Rounds {
		t.Errorf("tight eps rounds %d ≤ loose %d", tight.Rounds, loose.Rounds)
	}
}

func TestNoisyUsersDoNotCrash(t *testing.T) {
	ds := testData(t, 150, 3, 18)
	rng := rand.New(rand.NewSource(19))
	u := geom.SampleSimplex(rng, 3)
	noisy := core.NoisyUser{Utility: u, FlipProb: 0.25, Rng: rng}
	algos := []core.Algorithm{
		NewUHRandom(UHConfig{}, rand.New(rand.NewSource(20))),
		NewUHSimplex(UHConfig{}, rand.New(rand.NewSource(99))),
		NewSinglePass(SinglePassConfig{}, rand.New(rand.NewSource(21))),
		NewUtilityApprox(UtilityApproxConfig{}),
	}
	for _, alg := range algos {
		res, err := alg.Run(ds, noisy, 0.1, nil)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if res.PointIndex < 0 || res.PointIndex >= ds.Len() {
			t.Errorf("%s: point index %d", alg.Name(), res.PointIndex)
		}
	}
}

// Adaptive learns the preference itself, so it must ask more questions than
// the regret-targeting stopping rule needs — and still land a good tuple.
func TestAdaptiveAsksMoreThanUH(t *testing.T) {
	ds := testData(t, 400, 3, 40)
	rng := rand.New(rand.NewSource(41))
	u := geom.SampleSimplex(rng, 3)
	ad := NewAdaptive(AdaptiveConfig{}, rand.New(rand.NewSource(42)))
	adRes, err := ad.Run(ds, core.SimulatedUser{Utility: u}, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	uh := NewUHSimplex(UHConfig{}, rand.New(rand.NewSource(43)))
	uhRes, err := uh.Run(ds, core.SimulatedUser{Utility: u}, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if adRes.Rounds <= uhRes.Rounds {
		t.Errorf("Adaptive rounds %d ≤ UH-Simplex rounds %d; preference learning should cost more", adRes.Rounds, uhRes.Rounds)
	}
	if rr := ds.RegretRatio(adRes.Point, u); rr > 0.15 {
		t.Errorf("Adaptive regret %v too high after full preference learning", rr)
	}
	if len(adRes.Trace) != adRes.Rounds {
		t.Errorf("trace %d != rounds %d", len(adRes.Trace), adRes.Rounds)
	}
}

// UH-Random, UH-Simplex and Adaptive end on the shared loop's terms: a
// session the round cap stops before any view certifies a point is Degraded
// with the cap reason, and a threshold outside (0,1) is rejected.
func TestLoopBaselinesRoundCapAndThreshold(t *testing.T) {
	ds := testData(t, 300, 3, 50)
	user := core.SimulatedUser{Utility: []float64{0.2, 0.5, 0.3}}
	for _, alg := range []core.ContextAlgorithm{
		NewUHRandom(UHConfig{MaxRounds: 1}, rand.New(rand.NewSource(51))),
		NewUHSimplex(UHConfig{MaxRounds: 1}, rand.New(rand.NewSource(52))),
		NewAdaptive(AdaptiveConfig{MaxRounds: 1}, rand.New(rand.NewSource(53))),
	} {
		res, err := alg.Run(ds, user, 0.01, nil)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if res.Rounds != 1 || !res.Degraded || !strings.Contains(res.DegradedReason, "round cap") {
			t.Errorf("%s at the cap: rounds=%d degraded=%v reason=%q", alg.Name(), res.Rounds, res.Degraded, res.DegradedReason)
		}
		if _, err := alg.Run(ds, user, 1, nil); err == nil {
			t.Errorf("%s accepted eps = 1", alg.Name())
		}
	}
}
