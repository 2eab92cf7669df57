package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"isrl/internal/dataset"
	"isrl/internal/geom"
	"isrl/internal/obs"
	"isrl/internal/vec"
)

// tableIII is the running example of the paper (§III, u = (0.3, 0.7)),
// shifted off exact zeros to stay inside the (0,1] domain.
func tableIII() *dataset.Dataset {
	return &dataset.Dataset{Name: "tableIII", Points: [][]float64{
		{1e-9, 1.0}, {0.3, 0.7}, {0.5, 0.8}, {0.7, 0.4}, {1.0, 1e-9},
	}}
}

func TestSimulatedUser(t *testing.T) {
	u := SimulatedUser{Utility: []float64{0.3, 0.7}}
	d := tableIII()
	// Example 1: p3 is the favorite (utility 0.71); the user prefers p3 to
	// everything else.
	for i, p := range d.Points {
		if i == 2 {
			continue
		}
		if !u.Prefer(d.Points[2], p) {
			t.Errorf("user should prefer p3 to p%d", i+1)
		}
	}
	// Ties resolve toward the first argument.
	if !u.Prefer(d.Points[0], d.Points[0]) {
		t.Error("tie must prefer the first point")
	}
}

func TestNoisyUserFlipRates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	truthU := SimulatedUser{Utility: []float64{0.5, 0.5}}
	noisy := NoisyUser{Utility: truthU.Utility, FlipProb: 0.3, Rng: rng}
	a, b := []float64{0.9, 0.1}, []float64{0.1, 0.5}
	flips := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if noisy.Prefer(a, b) != truthU.Prefer(a, b) {
			flips++
		}
	}
	rate := float64(flips) / n
	if math.Abs(rate-0.3) > 0.02 {
		t.Errorf("flip rate %v, want ≈0.3", rate)
	}
	exact := NoisyUser{Utility: truthU.Utility, FlipProb: 0, Rng: rng}
	for i := 0; i < 100; i++ {
		if exact.Prefer(a, b) != truthU.Prefer(a, b) {
			t.Fatal("FlipProb 0 must never flip")
		}
	}
}

func TestStoppablePointFullSimplex(t *testing.T) {
	d := tableIII()
	E := geom.SimplexVertices(2)
	// With ε = 0 over the whole simplex no single point works (different
	// corners have different winners).
	if got := StoppablePoint(d, E, d.TopPoints(E, nil), 0); got != -1 {
		t.Errorf("eps=0 full simplex: got %d want -1", got)
	}
	// With ε = 1 any point qualifies (regret ≤ 1 always).
	if got := StoppablePoint(d, E, d.TopPoints(E, nil), 1); got < 0 {
		t.Error("eps=1 must stop immediately")
	}
}

func TestStoppablePointAfterNarrowing(t *testing.T) {
	d := tableIII()
	// Narrow to vertices around u=(0.3,0.7): p3 wins at both with margin.
	E := [][]float64{{0.25, 0.75}, {0.35, 0.65}}
	got := StoppablePoint(d, E, d.TopPoints(E, nil), 0.05)
	if got != 2 {
		t.Errorf("StoppablePoint = %d want 2 (p3)", got)
	}
	// Certificate: the returned point's regret at both vertices ≤ ε.
	if rr := MaxRegretOverVertices(d, E, d.Points[got]); rr > 0.05 {
		t.Errorf("certificate violated: %v", rr)
	}
}

// Property (Lemma 4 by convexity): if StoppablePoint returns p for vertex
// set E, then p's regret at any convex combination of E is ≤ ε.
func TestStoppablePointConvexityGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := dataset.Anticorrelated(rng, 300, 3).Skyline()
	for trial := 0; trial < 40; trial++ {
		// Random small vertex cloud.
		base := geom.SampleSimplex(rng, 3)
		E := make([][]float64, 3)
		for k := range E {
			e := vec.Clone(base)
			e[k] += 0.05
			clampNorm(e)
			E[k] = e
		}
		eps := 0.05 + rng.Float64()*0.2
		pi := StoppablePoint(d, E, d.TopPoints(E, nil), eps)
		if pi < 0 {
			continue
		}
		// Random convex combinations.
		for s := 0; s < 20; s++ {
			w := geom.SampleSimplex(rng, len(E))
			u := make([]float64, 3)
			for k, e := range E {
				vec.AddScaled(u, u, w[k], e)
			}
			if rr := d.RegretRatio(d.Points[pi], u); rr > eps+1e-9 {
				t.Fatalf("trial %d: regret %v > eps %v inside conv(E)", trial, rr, eps)
			}
		}
	}
}

func clampNorm(u []float64) {
	var s float64
	for i := range u {
		if u[i] < 0 {
			u[i] = 0
		}
		s += u[i]
	}
	for i := range u {
		u[i] /= s
	}
}

// stoppablePointRowwise is StoppablePoint's row-by-row reference: one
// vec.Dot per row and vertex, rows in index order, candidates first.
func stoppablePointRowwise(ds *dataset.Dataset, E [][]float64, tops []int, eps float64) int {
	thr := make([]float64, len(E))
	var cands []int
	seen := map[int]bool{}
	for k, e := range E {
		thr[k] = (1 - eps) * vec.Dot(e, ds.Points[tops[k]])
		if !seen[tops[k]] {
			seen[tops[k]] = true
			cands = append(cands, tops[k])
		}
	}
	ok := func(pi int) bool {
		for k, e := range E {
			if vec.Dot(e, ds.Points[pi])+1e-12 < thr[k] {
				return false
			}
		}
		return true
	}
	for _, ti := range cands {
		if ok(ti) {
			return ti
		}
	}
	for pi := range ds.Points {
		if !seen[pi] && ok(pi) {
			return pi
		}
	}
	return -1
}

// The block sweep must return the row-by-row sweep's row: on the kernel's
// whole blocks and the generic tail (row counts below, at and past 32), at
// d = 3, 4 and 20, with and without a built top-1 index (the column-major
// copy or per-row vec.Dot), on grid rows with repeats whose scores tie
// exactly, and with a NaN vertex whose threshold drops no row. Every
// outcome — a candidate, a row found by the sweep, and none — must occur.
func TestStoppablePointMatchesRowwise(t *testing.T) {
	outcomes := map[string]int{}
	for _, d := range []int{3, 4, 20} {
		for _, n := range []int{7, 31, 32, 33, 100} {
			rng := rand.New(rand.NewSource(int64(100*d + n)))
			pts := dataset.Anticorrelated(rng, n, d).Points
			for i := range pts {
				switch {
				case i%5 == 4:
					pts[i] = vec.Clone(pts[i/2])
				case i%4 == 0:
					for k := range pts[i] {
						pts[i][k] = float64(1+rng.Intn(4)) / 4
					}
				}
			}
			// A balanced row, late in the order: the sweep's certificate
			// when the vertices lean to different axes.
			vec.Fill(pts[n-1-n/8], 0.6)
			indexed := &dataset.Dataset{Points: pts}
			indexed.BuildTopIndex()
			plain := &dataset.Dataset{Points: pts}
			for trial := 0; trial < 30; trial++ {
				// A small cloud around one utility, or vertices leaning to
				// different axes, whose distinct tops fail each other's
				// thresholds.
				base := geom.SampleSimplex(rng, d)
				E := make([][]float64, 1+rng.Intn(d))
				for k := range E {
					e := vec.Clone(base)
					if trial%2 == 0 {
						vec.Fill(e, 0.3/float64(d))
						e[rng.Intn(d)] = 0.7
					}
					e[rng.Intn(d)] += 0.05 * rng.Float64()
					clampNorm(e)
					E[k] = e
				}
				tops := indexed.TopPoints(E, nil)
				if trial%10 == 9 {
					E = append(E, vec.Clone(E[0]))
					E[len(E)-1][0] = math.NaN()
					tops = append(tops, 0)
				}
				for _, eps := range []float64{0, 0.02, 0.1, 0.3, 0.5} {
					want := stoppablePointRowwise(plain, E, tops, eps)
					for name, ds := range map[string]*dataset.Dataset{"indexed": indexed, "plain": plain} {
						if got := StoppablePoint(ds, E, tops, eps); got != want {
							t.Fatalf("d=%d n=%d trial %d eps %v %s: StoppablePoint %d, row by row %d", d, n, trial, eps, name, got, want)
						}
					}
					switch {
					case want < 0:
						outcomes["none"]++
					case slices.Contains(tops, want):
						outcomes["candidate"]++
					default:
						outcomes["sweep"]++
					}
				}
			}
		}
	}
	for _, o := range []string{"none", "candidate", "sweep"} {
		if outcomes[o] == 0 {
			t.Errorf("no case ended in outcome %q (%v)", o, outcomes)
		}
	}
	t.Logf("outcomes: %v", outcomes)
}

func TestStoppablePointEmptyVertices(t *testing.T) {
	if got := StoppablePoint(tableIII(), nil, nil, 0.5); got != -1 {
		t.Errorf("empty E: got %d want -1", got)
	}
}

func TestRectStop(t *testing.T) {
	// d=4: threshold is 2·2·ε = 4ε.
	emin := []float64{0.2, 0.2, 0.2, 0.2}
	emax := []float64{0.3, 0.3, 0.3, 0.3} // dist = 0.2
	if !RectStop(emin, emax, 0.06) {      // 4·0.06 = 0.24 ≥ 0.2
		t.Error("should stop")
	}
	if RectStop(emin, emax, 0.04) { // 0.16 < 0.2
		t.Error("should not stop")
	}
}

func TestObserverFunc(t *testing.T) {
	var got int
	var obs Observer = ObserverFunc(func(r int, hs []geom.Halfspace) { got = r })
	obs.Round(7, nil)
	if got != 7 {
		t.Errorf("observer round = %d", got)
	}
}

func TestMaxRegretEstimateShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := dataset.Anticorrelated(rng, 400, 3).Skyline()
	// No information: worst-case regret over the whole simplex is large.
	before := MaxRegretEstimate(d, nil, rng, 300)
	// Strong information: a small cone around u*=(0.1,0.3,0.6).
	u := []float64{0.1, 0.3, 0.6}
	top := d.Points[d.TopPoint(u)]
	var hs []geom.Halfspace
	for _, p := range d.Points {
		if &p[0] == &top[0] {
			continue
		}
		hs = append(hs, geom.NewHalfspace(top, p))
	}
	after := MaxRegretEstimate(d, hs, rng, 300)
	if after >= before {
		t.Errorf("estimate did not shrink: before=%v after=%v", before, after)
	}
	if after > 1e-6 {
		t.Errorf("after pinning the winner, estimate should be ≈0, got %v", after)
	}
}

// The estimate solves R's inner ball once, on its handle's warm program:
// the sampler starts from that ball instead of solving a scratch LP.
func TestMaxRegretEstimateSolvesBallOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := dataset.Anticorrelated(rng, 200, 3).Skyline()
	hs := []geom.Halfspace{geom.NewHalfspace(d.Points[0], d.Points[1])}
	cold, scratch := obs.Default().Counter("lp.warm.cold"), obs.Default().Counter("geom.lp_solves")
	cold0, scratch0 := cold.Value(), scratch.Value()
	MaxRegretEstimate(d, hs, rng, 100)
	if n := cold.Value() - cold0; n != 1 {
		t.Errorf("%d inner-ball solves, want 1", n)
	}
	if n := scratch.Value() - scratch0; n != 0 {
		t.Errorf("%d scratch LP solves, want 0", n)
	}
}

func TestMaxRegretEstimateEmptyRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := tableIII()
	// Contradictory halfspaces make R empty; the estimate must still return
	// a finite value (centroid fallback).
	hs := []geom.Halfspace{
		{Normal: []float64{1, -1}},
		{Normal: []float64{-1, 1}},
		{Normal: []float64{-1, -1}},
	}
	got := MaxRegretEstimate(d, hs, rng, 100)
	if math.IsNaN(got) || got < 0 || got > 1 {
		t.Errorf("estimate = %v, want a value in [0,1]", got)
	}
}

func TestRecordingUser(t *testing.T) {
	inner := SimulatedUser{Utility: []float64{0.3, 0.7}}
	rec := &RecordingUser{Inner: inner}
	a, b := []float64{0.5, 0.8}, []float64{0.7, 0.4}
	if !rec.Prefer(a, b) {
		t.Error("recording wrapper changed the answer")
	}
	rec.Prefer(b, a)
	if len(rec.Record) != 2 {
		t.Fatalf("recorded %d comparisons, want 2", len(rec.Record))
	}
	if !rec.Record[0].PreferredI || rec.Record[1].PreferredI {
		t.Error("recorded answers wrong")
	}
	// The record must own its tuples.
	a[0] = 99
	if rec.Record[0].Pi[0] == 99 {
		t.Error("record shares storage with caller")
	}
}

func TestMajorityUser(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	u := []float64{0.3, 0.7}
	a, b := []float64{0.5, 0.8}, []float64{0.7, 0.4} // a truly preferred
	noisy := NoisyUser{Utility: u, FlipProb: 0.3, Rng: rng}
	plainWrong, majWrong := 0, 0
	const n = 4000
	maj := MajorityUser{Inner: noisy, K: 5}
	for i := 0; i < n; i++ {
		if !noisy.Prefer(a, b) {
			plainWrong++
		}
		if !maj.Prefer(a, b) {
			majWrong++
		}
	}
	if majWrong >= plainWrong {
		t.Errorf("majority-of-5 wrong %d ≥ plain wrong %d", majWrong, plainWrong)
	}
	// Error rate of majority-of-5 at p=0.3 is ≈ 0.163; allow slack.
	if rate := float64(majWrong) / n; rate > 0.22 {
		t.Errorf("majority error rate %v too high", rate)
	}
	// K ≤ 0 falls back to a single ask.
	one := MajorityUser{Inner: SimulatedUser{Utility: u}, K: 0}
	if !one.Prefer(a, b) {
		t.Error("K=0 must behave like a single truthful ask")
	}
}
