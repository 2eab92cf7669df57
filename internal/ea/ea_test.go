package ea

import (
	"fmt"
	"math/rand"
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

func smallCfg() Config {
	return Config{
		Me: 3, Mh: 4, NumSamples: 24, MaxRounds: 60,
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.Me != 5 || c.Mh != 5 || c.NumSamples != 64 || c.MaxRounds != 200 {
		t.Errorf("defaults = %+v", c)
	}
	if c.RL.Hidden != 64 {
		t.Error("RL defaults must be filled")
	}
}

// The exactness guarantee (Lemma 6): EA returns a point with regret ratio
// ≤ ε w.r.t. the user's hidden vector even when the agent is untrained
// (certificates do the work; RL only shortens the path). The property is
// checked across all three synthetic dataset shapes, d = 2…6 and three
// thresholds, with seeded users per cell.
func TestUntrainedEAIsExact(t *testing.T) {
	seed := int64(0)
	for _, kind := range []string{"anti", "indep", "corr"} {
		for d := 2; d <= 6; d++ {
			for _, eps := range []float64{0.05, 0.1, 0.2} {
				seed++
				t.Run(fmt.Sprintf("%s/d%d/eps%g", kind, d, eps), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					raw, err := dataset.Generate(kind, rng, 200, d)
					if err != nil {
						t.Fatal(err)
					}
					ds := raw.Skyline()
					e := New(ds, eps, smallCfg(), rng)
					for user := 0; user < 3; user++ {
						u := geom.SampleSimplex(rng, d)
						res, err := e.Run(ds, core.SimulatedUser{Utility: u}, eps, nil)
						if err != nil {
							t.Fatal(err)
						}
						if res.Degraded {
							t.Errorf("user %d: degraded result (%s)", user, res.DegradedReason)
						}
						if rr := ds.RegretRatio(res.Point, u); rr > eps+1e-9 {
							t.Errorf("user %d: regret %v > eps (rounds=%d)", user, rr, res.Rounds)
						}
						if len(res.Trace) != res.Rounds {
							t.Errorf("user %d: trace length %d != rounds %d", user, len(res.Trace), res.Rounds)
						}
					}
				})
			}
		}
	}
}

func TestTrainRunsAndImprovesOrMatches(t *testing.T) {
	ds := testData(t, 300, 3, 3)
	rng := rand.New(rand.NewSource(4))
	e := New(ds, 0.1, smallCfg(), rng)
	users := make([][]float64, 60)
	for i := range users {
		users[i] = geom.SampleSimplex(rng, 3)
	}
	stats, err := e.Train(users)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Episodes != 60 || stats.TotalSteps <= 0 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.AvgRounds <= 0 || stats.AvgRounds >= float64(smallCfg().MaxRounds) {
		t.Errorf("avg rounds = %v", stats.AvgRounds)
	}
	// Trained agent still exact.
	u := geom.SampleSimplex(rng, 3)
	res, err := e.Run(ds, core.SimulatedUser{Utility: u}, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rr := ds.RegretRatio(res.Point, u); rr > 0.1+1e-9 {
		t.Errorf("trained regret %v > eps", rr)
	}
}

func TestLargerEpsFewerRounds(t *testing.T) {
	ds := testData(t, 300, 3, 5)
	rng := rand.New(rand.NewSource(6))
	e := New(ds, 0.05, smallCfg(), rng)
	totalTight, totalLoose := 0, 0
	for trial := 0; trial < 6; trial++ {
		u := geom.SampleSimplex(rng, 3)
		rTight, err := e.Run(ds, core.SimulatedUser{Utility: u}, 0.02, nil)
		if err != nil {
			t.Fatal(err)
		}
		rLoose, err := e.Run(ds, core.SimulatedUser{Utility: u}, 0.3, nil)
		if err != nil {
			t.Fatal(err)
		}
		totalTight += rTight.Rounds
		totalLoose += rLoose.Rounds
	}
	if totalLoose > totalTight {
		t.Errorf("loose eps took more rounds (%d) than tight (%d)", totalLoose, totalTight)
	}
}

func TestObserverSeesEveryRound(t *testing.T) {
	ds := testData(t, 200, 3, 7)
	rng := rand.New(rand.NewSource(8))
	e := New(ds, 0.1, smallCfg(), rng)
	var calls []int
	obs := core.ObserverFunc(func(r int, hs []geom.Halfspace) {
		calls = append(calls, r)
		if len(hs) == 0 {
			t.Error("observer got empty halfspace set")
		}
	})
	res, err := e.Run(ds, core.SimulatedUser{Utility: geom.SampleSimplex(rng, 3)}, 0.1, obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != res.Rounds {
		t.Errorf("observer calls %d != rounds %d", len(calls), res.Rounds)
	}
	for i, r := range calls {
		if r != i+1 {
			t.Errorf("round numbering %v", calls)
			break
		}
	}
}

func TestDatasetMismatch(t *testing.T) {
	ds := testData(t, 200, 3, 9)
	other := testData(t, 300, 4, 10)
	rng := rand.New(rand.NewSource(11))
	e := New(ds, 0.1, smallCfg(), rng)
	if _, err := e.Run(other, core.SimulatedUser{Utility: geom.SampleSimplex(rng, 4)}, 0.1, nil); err != core.ErrDatasetMismatch {
		t.Errorf("err = %v, want ErrDatasetMismatch", err)
	}
}

// Noisy users may collapse the range to empty; EA must terminate gracefully
// and return some dataset point.
func TestNoisyUserTerminates(t *testing.T) {
	ds := testData(t, 200, 3, 12)
	rng := rand.New(rand.NewSource(13))
	e := New(ds, 0.1, smallCfg(), rng)
	u := geom.SampleSimplex(rng, 3)
	res, err := e.Run(ds, core.NoisyUser{Utility: u, FlipProb: 0.3, Rng: rng}, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PointIndex < 0 || res.PointIndex >= ds.Len() {
		t.Errorf("point index %d out of range", res.PointIndex)
	}
}

func TestRoundsBoundedByTheoremOne(t *testing.T) {
	// Theorem 1: O(n) rounds. With a tiny dataset the bound is tight enough
	// to assert: rounds ≤ number of points.
	ds := testData(t, 60, 3, 14)
	rng := rand.New(rand.NewSource(15))
	e := New(ds, 0.05, smallCfg(), rng)
	for trial := 0; trial < 5; trial++ {
		u := geom.SampleSimplex(rng, 3)
		res, err := e.Run(ds, core.SimulatedUser{Utility: u}, 0.05, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds > ds.Len() {
			t.Errorf("rounds %d exceed n=%d", res.Rounds, ds.Len())
		}
	}
}

func TestStateEncodingShape(t *testing.T) {
	ds := testData(t, 200, 3, 20)
	rng := rand.New(rand.NewSource(21))
	cfg := smallCfg()
	e := New(ds, 0.1, cfg, rng)
	// The agent's declared state dimension must match the encoder output:
	// mₑ·d + d + 1.
	wantDim := e.cfg.Me*3 + 3 + 1
	if e.agent.StateDim != wantDim {
		t.Fatalf("state dim %d want %d", e.agent.StateDim, wantDim)
	}
	verts := geom.SimplexVertices(3)
	ball := geom.EnclosingBall(verts, geom.EnclosingBallOptions{})
	s := e.encodeState(verts, ball)
	if len(s) != wantDim {
		t.Fatalf("encoded length %d want %d", len(s), wantDim)
	}
	// Sphere tail: center then radius.
	if s[len(s)-1] != ball.Radius {
		t.Errorf("radius slot = %v want %v", s[len(s)-1], ball.Radius)
	}
	// Ablations zero their parts.
	e.cfg.NoSphereState = true
	s2 := e.encodeState(verts, ball)
	if s2[len(s2)-1] != 0 {
		t.Error("NoSphereState must zero the sphere part")
	}
	e.cfg.NoSphereState = false
	e.cfg.NoExtremeState = true
	s3 := e.encodeState(verts, ball)
	for i := 0; i < e.cfg.Me*3; i++ {
		if s3[i] != 0 {
			t.Error("NoExtremeState must zero the vertex part")
			break
		}
	}
}

// Resilient mode keeps interacting through contradictory answers and should
// end with lower regret than hard-stopping on an empty range.
func TestResilientModeUnderNoise(t *testing.T) {
	ds := testData(t, 300, 3, 22)
	cfg := smallCfg()
	cfg.Resilient = true
	var plainRegret, resilientRegret float64
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		u := geom.SampleSimplex(rand.New(rand.NewSource(int64(100+trial))), 3)
		plain := New(ds, 0.1, smallCfg(), rand.New(rand.NewSource(7)))
		res, err := plain.Run(ds, core.NoisyUser{Utility: u, FlipProb: 0.25, Rng: rand.New(rand.NewSource(int64(trial)))}, 0.1, nil)
		if err != nil {
			t.Fatal(err)
		}
		plainRegret += ds.RegretRatio(res.Point, u)
		resilient := New(ds, 0.1, cfg, rand.New(rand.NewSource(7)))
		res, err = resilient.Run(ds, core.NoisyUser{Utility: u, FlipProb: 0.25, Rng: rand.New(rand.NewSource(int64(trial)))}, 0.1, nil)
		if err != nil {
			t.Fatal(err)
		}
		resilientRegret += ds.RegretRatio(res.Point, u)
	}
	t.Logf("plain regret %.4f, resilient regret %.4f (avg over %d)", plainRegret/trials, resilientRegret/trials, trials)
	if resilientRegret > plainRegret*1.5+0.05*trials {
		t.Errorf("resilient mode much worse than plain: %v vs %v", resilientRegret, plainRegret)
	}
}

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		f    func()
	}{
		{"empty dataset", func() { New(&dataset.Dataset{}, 0.1, Config{}, rng) }},
		{"eps zero", func() { New(testDataRaw(), 0, Config{}, rng) }},
		{"eps one", func() { New(testDataRaw(), 1, Config{}, rng) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			c.f()
		}()
	}
}

func testDataRaw() *dataset.Dataset {
	return &dataset.Dataset{Points: [][]float64{{0.5, 0.5}, {0.9, 0.1}}}
}

// Load and Run must reject the inputs New rejects: a model restored for an
// empty or one-attribute dataset, or a threshold outside (0,1), would
// otherwise serve results whose regret certificate cannot hold.
func TestLoadAndRunRejectBadInputs(t *testing.T) {
	ds := testData(t, 100, 3, 9)
	e := New(ds, 0.1, smallCfg(), rand.New(rand.NewSource(10)))
	blob, err := e.Agent().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	oneDim := &dataset.Dataset{Points: [][]float64{{0.5}, {0.7}}}
	for _, c := range []struct {
		name string
		ds   *dataset.Dataset
		eps  float64
	}{
		{"empty dataset", &dataset.Dataset{}, 0.1},
		{"one attribute", oneDim, 0.1},
		{"negative eps", ds, -1},
		{"zero eps", ds, 0},
		{"eps one", ds, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Load(c.ds, c.eps, smallCfg(), blob, rand.New(rand.NewSource(1))); err == nil {
				t.Error("Load accepted the input")
			}
			if c.ds != ds {
				return
			}
			res, err := e.Run(ds, core.SimulatedUser{Utility: []float64{0.55, 0.3, 0.15}}, c.eps, nil)
			if err == nil {
				t.Errorf("Run accepted eps %v: %d rounds, degraded %v", c.eps, res.Rounds, res.Degraded)
			}
		})
	}
}
