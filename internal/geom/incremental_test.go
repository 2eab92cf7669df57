package geom

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"isrl/internal/fault"
	"isrl/internal/vec"
)

// randSimplexPoint draws a point of the open simplex.
func randSimplexPoint(rng *rand.Rand, d int) []float64 {
	u := make([]float64, d)
	var s float64
	for i := range u {
		u[i] = 0.05 + rng.Float64()
		s += u[i]
	}
	vec.Scale(u, 1/s, u)
	return u
}

// randCut returns a pair-difference normal oriented to keep uStar feasible,
// the shape of every halfspace the interactive loop learns.
func randCut(rng *rand.Rand, d int, uStar []float64) []float64 {
	w := make([]float64, d)
	for i := range w {
		w[i] = rng.Float64() - rng.Float64()
	}
	if vec.Dot(w, uStar) < 0 {
		vec.Scale(w, -1, w)
	}
	return w
}

func sameVertices(t *testing.T, tag string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vertices, scratch has %d", tag, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: vertex %d coord %d: %v != scratch %v", tag, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestIncrementalMatchesScratchProperty interleaves an Incremental engine
// with from-scratch recomputation over many random halfspace sequences
// (adds and redundancy reductions) and demands: bit-identical vertex sets,
// LP optima within tolerance, and identical cut-probe verdicts — including
// the ones certified by the inner ball instead of an LP, so every certificate
// is sound.
func TestIncrementalMatchesScratchProperty(t *testing.T) {
	ctx := context.Background()
	ballHits := incProbeBallHits.Value()
	var probed int64
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(4)
		uStar := randSimplexPoint(rng, d)
		pScr := newPolytope(d)
		g := NewIncremental(d)

		// Fixed probe pool, re-asked as R shrinks. Half the normals carry a
		// large mean component: it shifts w·u by a constant on the simplex,
		// so the certificate must measure only the part orthogonal to 1.
		probes := make([]Halfspace, 8)
		for k := range probes {
			w := randCut(rng, d, uStar)
			if k%2 == 1 {
				m := (0.5 + 1.5*rng.Float64()) * vec.Norm(w)
				if rng.Intn(2) == 0 {
					m = -m
				}
				for i := range w {
					w[i] += m
				}
			}
			probes[k] = Halfspace{Normal: w}
		}

		steps := 12 + rng.Intn(10)
		for step := 0; step < steps; step++ {
			w := randCut(rng, d, uStar)
			g.AddCtx(ctx, Halfspace{Normal: w})
			pScr.Add(Halfspace{Normal: vec.Clone(w)})

			if rng.Intn(3) == 0 {
				rInc := g.Reduce()
				rScr := pScr.ReduceRedundant()
				if rInc != rScr {
					t.Fatalf("seed %d step %d: Reduce removed %d, scratch %d", seed, step, rInc, rScr)
				}
			}

			vInc, err := g.VerticesCtx(ctx)
			if err != nil {
				t.Fatalf("seed %d step %d: incremental vertices: %v", seed, step, err)
			}
			vScr, err := pScr.VerticesCtx(ctx)
			if err != nil {
				t.Fatalf("seed %d step %d: scratch vertices: %v", seed, step, err)
			}
			sameVertices(t, "vertices", vInc, vScr)

			bInc, err := g.InnerBallCtx(ctx)
			if err != nil {
				t.Fatalf("seed %d step %d: incremental inner ball: %v", seed, step, err)
			}
			bScr, err := pScr.InnerBallCtx(ctx)
			if err != nil {
				t.Fatalf("seed %d step %d: scratch inner ball: %v", seed, step, err)
			}
			if math.Abs(bInc.Radius-bScr.Radius) > 1e-6*(1+bScr.Radius) {
				t.Fatalf("seed %d step %d: inner radius %v, scratch %v", seed, step, bInc.Radius, bScr.Radius)
			}
			if !pScr.Contains(bInc.Center, 1e-6) {
				t.Fatalf("seed %d step %d: warm inner center outside R", seed, step)
			}

			minInc, maxInc, err := g.OuterRectCtx(ctx)
			if err != nil {
				t.Fatalf("seed %d step %d: incremental outer rect: %v", seed, step, err)
			}
			minScr, maxScr, err := pScr.OuterRect()
			if err != nil {
				t.Fatalf("seed %d step %d: scratch outer rect: %v", seed, step, err)
			}
			for i := 0; i < d; i++ {
				if math.Abs(minInc[i]-minScr[i]) > 1e-6 || math.Abs(maxInc[i]-maxScr[i]) > 1e-6 {
					t.Fatalf("seed %d step %d dim %d: rect [%v,%v], scratch [%v,%v]",
						seed, step, i, minInc[i], maxInc[i], minScr[i], maxScr[i])
				}
			}

			check := func(kind string, k int, h Halfspace, margin float64) {
				got := g.CutsBothSides(bInc, h, margin)
				want := pScr.CutsBothSides(h, margin)
				if got != want {
					t.Fatalf("seed %d step %d %s probe %d margin %g: cuts=%v, scratch %v",
						seed, step, kind, k, margin, got, want)
				}
				probed++
			}
			for k, h := range probes {
				check("pool", k, h, 1e-9)
				check("pool", k, h, 1e-2)
			}
			// Tight probes: for each facet f the ball touches, the parallel
			// hyperplane f·u = f·c through the center. R touches f·u = 0, so
			// that side reaches exactly f·c; a margin just above it makes the
			// scratch verdict false, and a certificate that over-claims the
			// ball's reach on that side disagrees.
			for k, f := range g.Halfspaces() {
				tf := vec.Dot(f.Normal, bInc.Center)
				if math.Abs(tf-bInc.Radius*vec.Norm(f.Normal)) > 1e-9 {
					continue
				}
				n := make([]float64, d)
				for i := range n {
					n[i] = f.Normal[i] - tf
				}
				check("tight", k, Halfspace{Normal: n}, tf*(1+1e-3))
			}

			if uDot := vec.Dot(w, uStar); uDot < 0 {
				t.Fatalf("seed %d step %d: generator broke invariant", seed, step)
			}
			if !pScr.Contains(uStar, 1e-7) {
				t.Fatalf("seed %d step %d: uStar left R", seed, step)
			}
		}
	}
	hits := incProbeBallHits.Value() - ballHits
	if hits == 0 || hits == probed {
		t.Fatalf("%d of %d probes ball-certified; want some certified and some on the LP", hits, probed)
	}
	t.Logf("%d of %d probes ball-certified", hits, probed)
}

// TestIncrementalClipFaultFallsBackScratch arms geom.inc.clip at full
// probability: every clip degrades, the engine must rebuild from scratch
// enumeration each round, and all outputs stay bit-identical to the scratch
// polytope.
func TestIncrementalClipFaultFallsBackScratch(t *testing.T) {
	fault.Install(fault.NewPlan(3).Set(fault.PointIncClip, fault.Spec{ErrProb: 1}))
	defer fault.Install(nil)

	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	d := 4
	uStar := randSimplexPoint(rng, d)
	pScr := newPolytope(d)
	g := NewIncremental(d)
	for step := 0; step < 15; step++ {
		w := randCut(rng, d, uStar)
		g.AddCtx(ctx, Halfspace{Normal: w})
		pScr.Add(Halfspace{Normal: vec.Clone(w)})
		vInc, err := g.VerticesCtx(ctx)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		vScr, err := pScr.VerticesCtx(ctx)
		if err != nil {
			t.Fatalf("step %d: scratch: %v", step, err)
		}
		sameVertices(t, "faulted vertices", vInc, vScr)
	}
	if got := fault.Installed().Injections(fault.PointIncClip); got == 0 {
		t.Fatal("fault plan armed but geom.inc.clip never injected")
	}
}

// TestIncrementalRepairResetsState pins Repair, the one mutation that can
// grow R: every structure warmed on the old range must be dropped, or the
// next reads describe a range that no longer exists.
//
// R starts as {u₀ ≥ u₁, u₀ ≥ u₂}. The cut u₁ ≥ u₀ flattens it to a face,
// and repair drops the short-normal u₀ ≥ u₁, whose removal recovers the
// most slack: R becomes {u₁ ≥ u₀ ≥ u₂}, mostly outside the old range. The
// probe, asked with the handle's ball of each range, misses the old R but
// cuts the new one; the warm solvers still hold the dropped row; the
// vertex list is the face's; and the old minimizer of u₀, (⅓,⅓,⅓), still
// lies in R although min u₀ fell from ⅓ to 0.
func TestIncrementalRepairResetsState(t *testing.T) {
	ctx := context.Background()
	d := 3
	g := NewIncremental(d)
	g.AddCtx(ctx, Halfspace{Normal: []float64{0.1, -0.1, 0}})
	g.AddCtx(ctx, Halfspace{Normal: []float64{1, 0, -1}})
	probe := Halfspace{Normal: []float64{-0.75, 0.25, -0.75}}
	ball, err := g.InnerBallCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if g.CutsBothSides(ball, probe, 1e-9) {
		t.Fatal("probe cuts the initial range")
	}
	if _, _, err := g.OuterRectCtx(ctx); err != nil {
		t.Fatal(err)
	}

	// A full-dimensional R needs no repair: nothing is dropped and the
	// witnesses survive.
	if n := g.Repair(); n != 0 {
		t.Fatalf("repair of a healthy range dropped %d halfspaces", n)
	}
	hits := incRectWitnessHits.Value()
	if _, _, err := g.OuterRectCtx(ctx); err != nil {
		t.Fatal(err)
	}
	if incRectWitnessHits.Value()-hits != int64(2*d) {
		t.Fatalf("no-op repair dropped witnesses: %d of %d reused", incRectWitnessHits.Value()-hits, 2*d)
	}

	// Warm every structure on the flattened range, then repair it.
	g.AddCtx(ctx, Halfspace{Normal: []float64{-1, 1, 0}})
	if _, err := g.VerticesCtx(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := g.InnerBallCtx(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.OuterRectCtx(ctx); err != nil {
		t.Fatal(err)
	}
	if n, hs := g.Repair(), g.Halfspaces(); n != 1 || len(hs) != 2 || hs[0].Normal[0] != 1 {
		t.Fatalf("repair dropped %d halfspaces, left %v; want u₀ ≥ u₁ dropped", n, hs)
	}

	scr := newPolytope(d)
	scr.Add(Halfspace{Normal: []float64{1, 0, -1}})
	scr.Add(Halfspace{Normal: []float64{-1, 1, 0}})
	vInc, err := g.VerticesCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	vScr, err := scr.VerticesCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sameVertices(t, "vertices after repair", vInc, vScr)
	if ball, err = g.InnerBallCtx(ctx); err != nil {
		t.Fatal(err)
	}
	bScr, err := scr.InnerBallCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ball.Radius-bScr.Radius) > 1e-6*(1+bScr.Radius) {
		t.Fatalf("inner radius after repair %v, scratch %v", ball.Radius, bScr.Radius)
	}
	if got, want := g.CutsBothSides(ball, probe, 1e-9), scr.CutsBothSides(probe, 1e-9); got != want || !want {
		t.Fatalf("probe after repair: cuts=%v, scratch %v (want true)", got, want)
	}
	minInc, maxInc, err := g.OuterRectCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	minScr, maxScr, err := scr.OuterRect()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d; i++ {
		if math.Abs(minInc[i]-minScr[i]) > 1e-6 || math.Abs(maxInc[i]-maxScr[i]) > 1e-6 {
			t.Fatalf("dim %d after repair: rect [%v,%v], scratch [%v,%v]", i, minInc[i], maxInc[i], minScr[i], maxScr[i])
		}
	}
}
