package aa

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
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
	return Config{Mh: 4, TopK: 10, RandPairs: 40, MaxLPChecks: 30, MaxRounds: 120}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.Mh != 5 || c.TopK != 20 || c.RandPairs != 100 || c.MaxLPChecks != 60 || c.MaxRounds != 400 {
		t.Errorf("defaults = %+v", c)
	}
}

// Lemma 9's guarantee: regret ≤ d²ε for every session; empirically the
// actual regret stays below ε (the paper's observation), checked here as the
// mean of each cell. The property is checked across the three synthetic
// dataset shapes, d ∈ {3, 5, 8, 12} and three thresholds, with seeded users
// per cell.
func TestUntrainedAARegretBound(t *testing.T) {
	const users = 4
	seed := int64(0)
	for _, kind := range []string{"anti", "indep", "corr"} {
		for _, d := range []int{3, 5, 8, 12} {
			for _, eps := range []float64{0.05, 0.1, 0.2} {
				seed++
				t.Run(fmt.Sprintf("%s/d%d/eps%g", kind, d, eps), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					raw, err := dataset.Generate(kind, rng, 200, d)
					if err != nil {
						t.Fatal(err)
					}
					ds := raw.Skyline()
					a := New(ds, eps, smallCfg(), rng)
					bound := float64(d*d) * eps
					var sum float64
					for user := 0; user < users; user++ {
						u := geom.SampleSimplex(rng, d)
						res, err := a.Run(ds, core.SimulatedUser{Utility: u}, eps, nil)
						if err != nil {
							t.Fatal(err)
						}
						rr := ds.RegretRatio(res.Point, u)
						if rr > bound+1e-9 {
							t.Errorf("user %d: regret %v violates d²ε bound %v", user, rr, bound)
						}
						sum += rr
						if res.Rounds >= smallCfg().MaxRounds {
							t.Errorf("user %d: hit round cap", user)
						}
						if len(res.Trace) != res.Rounds {
							t.Errorf("user %d: trace length %d != rounds %d", user, len(res.Trace), res.Rounds)
						}
					}
					if avg := sum / users; avg > eps {
						t.Errorf("mean regret %v above eps", avg)
					}
				})
			}
		}
	}
}

func TestAAHighDimensional(t *testing.T) {
	// AA's raison d'être: d=20 runs that EA cannot attempt.
	rng := rand.New(rand.NewSource(3))
	ds := dataset.Independent(rng, 400, 20)
	ds = &dataset.Dataset{Name: ds.Name, Points: ds.Points[:200]} // keep LPs small in tests
	a := New(ds, 0.15, smallCfg(), rng)
	u := geom.SampleSimplex(rng, 20)
	res, err := a.Run(ds, core.SimulatedUser{Utility: u}, 0.15, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds == 0 || res.Rounds >= smallCfg().MaxRounds {
		t.Errorf("rounds = %d", res.Rounds)
	}
	if rr := ds.RegretRatio(res.Point, u); rr > 0.5 {
		t.Errorf("regret %v implausibly high for d=20", rr)
	}
}

func TestTrainImprovesOrRuns(t *testing.T) {
	ds := testData(t, 300, 3, 4)
	rng := rand.New(rand.NewSource(5))
	a := New(ds, 0.1, smallCfg(), rng)
	users := make([][]float64, 50)
	for i := range users {
		users[i] = geom.SampleSimplex(rng, 3)
	}
	stats, err := a.Train(users)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Episodes != 50 || stats.TotalSteps <= 0 || stats.AvgRounds <= 0 {
		t.Errorf("stats = %+v", stats)
	}
	res, err := a.Run(ds, core.SimulatedUser{Utility: geom.SampleSimplex(rng, 3)}, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PointIndex < 0 || res.PointIndex >= ds.Len() {
		t.Errorf("bad point index %d", res.PointIndex)
	}
}

func TestLargerEpsFewerRounds(t *testing.T) {
	ds := testData(t, 300, 3, 6)
	rng := rand.New(rand.NewSource(7))
	a := New(ds, 0.05, smallCfg(), rng)
	tight, loose := 0, 0
	for trial := 0; trial < 5; trial++ {
		u := geom.SampleSimplex(rng, 3)
		rt, err := a.Run(ds, core.SimulatedUser{Utility: u}, 0.03, nil)
		if err != nil {
			t.Fatal(err)
		}
		rl2, err := a.Run(ds, core.SimulatedUser{Utility: u}, 0.3, nil)
		if err != nil {
			t.Fatal(err)
		}
		tight += rt.Rounds
		loose += rl2.Rounds
	}
	if loose > tight {
		t.Errorf("loose eps rounds %d > tight %d", loose, tight)
	}
}

func TestObserverAndMismatch(t *testing.T) {
	ds := testData(t, 200, 3, 8)
	rng := rand.New(rand.NewSource(9))
	a := New(ds, 0.1, smallCfg(), rng)
	var rounds int
	obs := core.ObserverFunc(func(r int, hs []geom.Halfspace) { rounds = r })
	res, err := a.Run(ds, core.SimulatedUser{Utility: geom.SampleSimplex(rng, 3)}, 0.1, obs)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != res.Rounds {
		t.Errorf("observer saw %d rounds, result says %d", rounds, res.Rounds)
	}
	other := testData(t, 300, 4, 10)
	if _, err := a.Run(other, core.SimulatedUser{Utility: geom.SampleSimplex(rng, 4)}, 0.1, nil); err != core.ErrDatasetMismatch {
		t.Errorf("err = %v", err)
	}
}

func TestNoisyUserTerminates(t *testing.T) {
	ds := testData(t, 200, 3, 11)
	rng := rand.New(rand.NewSource(12))
	a := New(ds, 0.1, smallCfg(), rng)
	u := geom.SampleSimplex(rng, 3)
	res, err := a.Run(ds, core.NoisyUser{Utility: u, FlipProb: 0.3, Rng: rng}, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PointIndex < 0 || res.PointIndex >= ds.Len() {
		t.Errorf("point index %d", res.PointIndex)
	}
}

// The action pool should carry diverse cut directions: a pool of nearly
// parallel hyperplanes cannot shrink the outer rectangle in all dimensions.
func TestActionDirectionDiversity(t *testing.T) {
	ds := testData(t, 500, 4, 20)
	rng := rand.New(rand.NewSource(21))
	a := New(ds, 0.1, Config{Mh: 5, TopK: 15, RandPairs: 80, MaxLPChecks: 40, MaxRounds: 50}, rng)
	poly := geom.NewIncremental(4)
	ball, err := poly.InnerBallCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	acts := a.selectActions(context.Background(), geom.NewIncremental(4), ball)
	if len(acts) < 2 {
		t.Skipf("only %d actions available", len(acts))
	}
	// At least one pair of chosen normals must be clearly non-parallel.
	normals := make([][]float64, len(acts))
	for i, act := range acts {
		n := make([]float64, 4)
		for k := 0; k < 4; k++ {
			n[k] = act.Feat[k] - act.Feat[4+k]
		}
		norm := 0.0
		for _, v := range n {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		for k := range n {
			n[k] /= norm
		}
		normals[i] = n
	}
	diverse := false
	for i := 0; i < len(normals) && !diverse; i++ {
		for j := i + 1; j < len(normals); j++ {
			cos := 0.0
			for k := 0; k < 4; k++ {
				cos += normals[i][k] * normals[j][k]
			}
			if math.Abs(cos) < 0.9 {
				diverse = true
				break
			}
		}
	}
	if !diverse {
		t.Error("all selected cut directions are nearly parallel")
	}
}

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	defer func() {
		if recover() == nil {
			t.Error("expected panic for eps outside (0,1)")
		}
	}()
	New(&dataset.Dataset{Points: [][]float64{{0.5, 0.5}}}, 2, Config{}, rng)
}

// Load and Run must reject the inputs New rejects: a model restored for an
// empty or one-attribute dataset, or a threshold outside (0,1), would
// otherwise serve results whose regret bound cannot hold.
func TestLoadAndRunRejectBadInputs(t *testing.T) {
	ds := testData(t, 100, 3, 9)
	a := New(ds, 0.1, smallCfg(), rand.New(rand.NewSource(10)))
	blob, err := a.Agent().MarshalBinary()
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
			res, err := a.Run(ds, core.SimulatedUser{Utility: []float64{0.2, 0.45, 0.35}}, c.eps, nil)
			if err == nil {
				t.Errorf("Run accepted eps %v: %d rounds, degraded %v", c.eps, res.Rounds, res.Degraded)
			}
		})
	}
}

// topK must return exactly what a stable full sort by (score desc, index
// asc) would put first, ties included: scores drawn from a small integer
// grid make runs of equal scores common.
func TestTopKTieOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(5))
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(x, y int) bool { return scores[want[x]] > scores[want[y]] })
		for _, k := range []int{0, 1, 20, n, n + 5} {
			got := topK(nil, scores, k)
			w := want[:min(k, n)]
			if len(got) != len(w) {
				t.Fatalf("n=%d k=%d: %d indices, want %d", n, k, len(got), len(w))
			}
			for i := range w {
				if got[i] != w[i] {
					t.Fatalf("n=%d k=%d scores %v: got %v, want %v", n, k, scores, got, w)
				}
			}
		}
	}
}
