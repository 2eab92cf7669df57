package geom

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"isrl/internal/vec"
)

func TestHalfspaceFromPair(t *testing.T) {
	pi := []float64{0.8, 0.2}
	pj := []float64{0.3, 0.9}
	h := NewHalfspace(pi, pj)
	if !vec.Equal(h.Normal, []float64{0.5, -0.7}, 1e-12) {
		t.Errorf("normal = %v", h.Normal)
	}
	// A utility vector preferring pi must be contained.
	u := []float64{0.9, 0.1} // u·pi=0.74 > u·pj=0.36
	if !h.Contains(u, 0) {
		t.Error("u preferring pi should be inside h+")
	}
	if h.Flip().Contains(u, 0) {
		t.Error("flip must exclude u")
	}
}

func TestHalfspaceDist(t *testing.T) {
	h := Halfspace{Normal: []float64{1, -1}}
	got := h.Dist([]float64{0.75, 0.25})
	want := 0.5 / math.Sqrt2
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Dist = %v want %v", got, want)
	}
	if z := (Halfspace{Normal: []float64{0, 0}}).Dist([]float64{1, 0}); z != inf {
		t.Errorf("zero normal Dist = %v, want +huge", z)
	}
}

func TestSimplexHelpers(t *testing.T) {
	vs := SimplexVertices(3)
	if len(vs) != 3 || vs[1][1] != 1 || vs[1][0] != 0 {
		t.Errorf("SimplexVertices = %v", vs)
	}
	c := SimplexCentroid(4)
	if math.Abs(vec.Sum(c)-1) > 1e-12 || c[0] != 0.25 {
		t.Errorf("centroid = %v", c)
	}
}

func TestVerticesOfFullSimplex(t *testing.T) {
	for d := 2; d <= 6; d++ {
		p := newPolytope(d)
		vs, err := p.VerticesCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != d {
			t.Fatalf("d=%d: %d vertices, want %d", d, len(vs), d)
		}
		for _, v := range vs {
			if math.Abs(vec.Sum(v)-1) > 1e-9 || math.Abs(vec.Max(v)-1) > 1e-9 {
				t.Errorf("d=%d: vertex %v is not a basis vector", d, v)
			}
		}
	}
}

func TestVerticesAfterCut(t *testing.T) {
	// 2D simplex is the segment (1,0)-(0,1). Cut with u1 ≥ u2
	// (normal (1,-1)): vertices become (1,0) and (0.5,0.5).
	p := newPolytope(2)
	p.Add(Halfspace{Normal: []float64{1, -1}})
	vs, err := p.VerticesCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 {
		t.Fatalf("%d vertices, want 2: %v", len(vs), vs)
	}
	want := [][]float64{{0.5, 0.5}, {1, 0}}
	for i := range want {
		if !vec.Equal(vs[i], want[i], 1e-9) {
			t.Errorf("vertex %d = %v want %v", i, vs[i], want[i])
		}
	}
}

// The handle serves its maintained vertex list until R changes; an Add
// replaces the list (here by clipping) instead of serving the stale one.
func TestVerticesCache(t *testing.T) {
	ctx := context.Background()
	g := NewIncremental(3)
	v1, _ := g.VerticesCtx(ctx)
	v2, _ := g.VerticesCtx(ctx)
	if &v1[0][0] != &v2[0][0] {
		t.Error("second read should return the maintained list")
	}
	g.AddCtx(ctx, Halfspace{Normal: []float64{1, -1, 0}})
	v3, _ := g.VerticesCtx(ctx)
	p := newPolytope(3)
	p.Add(Halfspace{Normal: []float64{1, -1, 0}})
	want, _ := p.VerticesCtx(ctx)
	sameVertices(t, "after Add", v3, want)
}

// Property: every enumerated vertex is feasible, and every vertex of the cut
// polytope is inside the parent polytope.
func TestVerticesFeasibleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		d := 2 + rng.Intn(4)
		p := newPolytope(d)
		u := SampleSimplex(rng, d) // kept-feasible witness
		for k := 0; k < 1+rng.Intn(6); k++ {
			w := make([]float64, d)
			for i := range w {
				w[i] = rng.NormFloat64()
			}
			if vec.Dot(w, u) < 0 {
				vec.Scale(w, -1, w)
			}
			p.Add(Halfspace{Normal: w})
		}
		vs, err := p.VerticesCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) == 0 {
			t.Fatalf("trial %d: no vertices though witness %v is feasible", trial, u)
		}
		for _, v := range vs {
			if !p.Contains(v, 1e-6) {
				t.Fatalf("trial %d: vertex %v infeasible", trial, v)
			}
		}
	}
}

func TestIsEmptyAndContains(t *testing.T) {
	p := newPolytope(2)
	if p.IsEmpty() {
		t.Fatal("full simplex reported empty")
	}
	if !p.Contains([]float64{0.5, 0.5}, 0) || p.Contains([]float64{0.7, 0.7}, 0) {
		t.Error("Contains wrong on simplex membership")
	}
	p.Add(Halfspace{Normal: []float64{1, -1}})  // u1 ≥ u2
	p.Add(Halfspace{Normal: []float64{-1, 1}})  // u2 ≥ u1 → only the midpoint
	p.Add(Halfspace{Normal: []float64{-1, -1}}) // −u1−u2 ≥ 0: impossible on simplex
	if !p.IsEmpty() {
		t.Error("contradictory polytope not reported empty")
	}
}

func TestInteriorSlack(t *testing.T) {
	p := newPolytope(3)
	p.Add(Halfspace{Normal: []float64{1, -1, 0}})
	slack, u, ok := p.InteriorSlack()
	if !ok || slack <= 0 {
		t.Fatalf("slack=%v ok=%v, want positive", slack, ok)
	}
	if !p.Contains(u, 1e-7) {
		t.Errorf("witness %v infeasible", u)
	}
	// Empty interior on the flip side.
	q := newPolytope(2)
	q.Add(Halfspace{Normal: []float64{1, -1}})
	q.Add(Halfspace{Normal: []float64{-1, 1}})
	s2, _, ok := q.InteriorSlack()
	if !ok {
		t.Fatal("InteriorSlack failed on a line-degenerate polytope")
	}
	if s2 > 1e-9 {
		t.Errorf("slack=%v, want ~0 for degenerate polytope", s2)
	}
}

func TestCutsBothSides(t *testing.T) {
	p := newPolytope(2)
	mid := Halfspace{Normal: []float64{1, -1}} // passes through (0.5,0.5)
	if !p.CutsBothSides(mid, 1e-9) {
		t.Error("bisecting hyperplane should cut both sides")
	}
	// A hyperplane entirely outside the simplex: u1+u2 = 0.
	out := Halfspace{Normal: []float64{1, 1}}
	if p.CutsBothSides(out, 1e-9) {
		t.Error("non-crossing hyperplane must not report both sides")
	}
}

func TestOuterRect(t *testing.T) {
	p := newPolytope(2)
	emin, emax, err := p.OuterRect()
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(emin, []float64{0, 0}, 1e-8) || !vec.Equal(emax, []float64{1, 1}, 1e-8) {
		t.Errorf("rect = %v %v", emin, emax)
	}
	p.Add(Halfspace{Normal: []float64{1, -1}}) // u1 ≥ 1/2 on simplex
	emin, emax, err = p.OuterRect()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(emin[0]-0.5) > 1e-8 || math.Abs(emax[1]-0.5) > 1e-8 {
		t.Errorf("cut rect = %v %v", emin, emax)
	}
}

func TestInnerBall(t *testing.T) {
	p := newPolytope(2)
	b, err := p.InnerBallCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// On the 2-simplex segment, the center maximizing min(c1,c2) is the
	// midpoint with radius 1/2.
	if !vec.Equal(b.Center, []float64{0.5, 0.5}, 1e-8) || math.Abs(b.Radius-0.5) > 1e-8 {
		t.Errorf("inner ball = %+v", b)
	}
	if !p.Contains(b.Center, 1e-9) {
		t.Error("center must be inside R")
	}
}

// Property: inner ball center is always inside R, and every halfspace keeps
// distance ≥ radius.
func TestInnerBallRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		d := 2 + rng.Intn(5)
		p := newPolytope(d)
		u := SampleSimplex(rng, d)
		for k := 0; k < rng.Intn(7); k++ {
			w := make([]float64, d)
			for i := range w {
				w[i] = rng.NormFloat64()
			}
			if vec.Dot(w, u) < 0 {
				vec.Scale(w, -1, w)
			}
			p.Add(Halfspace{Normal: w})
		}
		b, err := p.InnerBallCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !p.Contains(b.Center, 1e-6) {
			t.Fatalf("trial %d: center %v outside R", trial, b.Center)
		}
		for _, h := range p.Halfspaces {
			if h.Dist(b.Center) < b.Radius-1e-6 {
				t.Fatalf("trial %d: halfspace closer than radius", trial)
			}
		}
	}
}

func TestReduceRedundant(t *testing.T) {
	p := newPolytope(3)
	p.Add(Halfspace{Normal: []float64{1, -1, 0}})
	p.Add(Halfspace{Normal: []float64{2, -2, 0}}) // same halfspace scaled
	p.Add(Halfspace{Normal: []float64{1, -0.5, 0}})
	// {u1 ≥ u2} implies {u1 ≥ 0.5·u2}; the last is redundant; one of the
	// first two is redundant with the other.
	removed := p.ReduceRedundant()
	if removed < 2 {
		t.Errorf("removed %d redundant halfspaces, want ≥ 2", removed)
	}
	if len(p.Halfspaces) == 0 {
		t.Error("must keep at least one active halfspace")
	}
	vs, err := p.VerticesCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		if vec.Dot([]float64{1, -1, 0}, v) < -1e-8 {
			t.Errorf("reduction changed the polytope: %v violates u1≥u2", v)
		}
	}
}

func TestEnclosingBallKnown(t *testing.T) {
	pts := [][]float64{{0, 0}, {2, 0}, {1, 0}}
	b := EnclosingBall(pts, EnclosingBallOptions{})
	if math.Abs(b.Radius-1) > 1e-3 {
		t.Errorf("radius = %v want ≈1", b.Radius)
	}
	if math.Abs(b.Center[0]-1) > 1e-3 || math.Abs(b.Center[1]) > 1e-3 {
		t.Errorf("center = %v want ≈(1,0)", b.Center)
	}
}

func TestEnclosingBallSinglePoint(t *testing.T) {
	b := EnclosingBall([][]float64{{0.3, 0.7}}, EnclosingBallOptions{})
	if b.Radius != 0 || !vec.Equal(b.Center, []float64{0.3, 0.7}, 0) {
		t.Errorf("ball = %+v", b)
	}
	if got := EnclosingBall(nil, EnclosingBallOptions{}); got.Center != nil {
		t.Errorf("empty input should give zero ball, got %+v", got)
	}
}

// Property (Lemma 3 consequence): the ball always contains all points, and
// is within a small factor of the best ball found from random restarts.
func TestEnclosingBallContainsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		d := 2 + rng.Intn(4)
		n := 2 + rng.Intn(20)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = SampleSimplex(rng, d)
		}
		b := EnclosingBall(pts, EnclosingBallOptions{})
		for _, p := range pts {
			if !b.Contains(p, 1e-6) {
				t.Fatalf("trial %d: point %v outside ball %+v", trial, p, b)
			}
		}
	}
}

func TestSampleInsidePolytope(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := newPolytope(4)
	p.Add(Halfspace{Normal: []float64{1, -1, 0, 0}})
	p.Add(Halfspace{Normal: []float64{0, 1, -1, 0}})
	samples := scratchSample(t, p, rng, 200)
	if len(samples) != 200 {
		t.Fatalf("%d samples, want 200", len(samples))
	}
	for _, s := range samples {
		if !p.Contains(s, 1e-7) {
			t.Fatalf("sample %v escapes R", s)
		}
	}
}

// Property (Lemma 5 flavour): the sample fraction in the u1 ≥ u2 half of
// the 3-simplex should approximate 1/2.
func TestSampleRoughlyUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	p := newPolytope(3)
	samples := scratchSample(t, p, rng, 2000)
	inHalf := 0
	for _, s := range samples {
		if s[0] >= s[1] {
			inHalf++
		}
	}
	frac := float64(inHalf) / float64(len(samples))
	if frac < 0.40 || frac > 0.60 {
		t.Errorf("fraction in u1≥u2 half = %v, want ≈0.5", frac)
	}
}

func TestSampleEmptyPolytopeFails(t *testing.T) {
	ctx := context.Background()
	g := NewIncremental(2)
	g.AddCtx(ctx, Halfspace{Normal: []float64{-1, -1}})
	if _, err := g.SampleCtx(ctx, rand.New(rand.NewSource(1)), 5); err == nil {
		t.Error("sampling an empty polytope must fail")
	}
}

func TestGreedyCoverBasic(t *testing.T) {
	// Two clusters; one pick per cluster should cover everything.
	pts := [][]float64{
		{0, 0}, {0.01, 0}, {0, 0.01},
		{1, 1}, {1.01, 1}, {1, 1.01},
	}
	chosen := GreedyCover(pts, 2, 0.05)
	if len(chosen) != 2 {
		t.Fatalf("chose %d, want 2", len(chosen))
	}
	if CoverageOf(pts, chosen, 0.05) != len(pts) {
		t.Errorf("coverage %d of %d", CoverageOf(pts, chosen, 0.05), len(pts))
	}
}

func TestGreedyCoverFirstPickIsDensest(t *testing.T) {
	// Mirrors the paper's Example 5: the vector with the largest
	// neighborhood is selected first.
	pts := [][]float64{
		{0, 0}, {0.02, 0}, {0.04, 0}, // dense cluster around index 1
		{1, 0}, {2, 0},
	}
	chosen := GreedyCover(pts, 1, 0.03)
	if len(chosen) != 1 || chosen[0] != 1 {
		t.Errorf("first pick = %v, want [1] (covers 3 points)", chosen)
	}
}

func TestGreedyCoverEdgeCases(t *testing.T) {
	if got := GreedyCover(nil, 3, 0.1); got != nil {
		t.Errorf("empty input: %v", got)
	}
	pts := [][]float64{{0, 0}, {5, 5}}
	if got := GreedyCover(pts, 10, 0.1); len(got) != 2 {
		t.Errorf("m > n must clamp: %v", got)
	}
	if got := GreedyCover(pts, 0, 0.1); got != nil {
		t.Errorf("m = 0: %v", got)
	}
}

// Property: greedy coverage is monotone in m.
func TestGreedyCoverMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := make([][]float64, 40)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64()}
	}
	prev := 0
	for m := 1; m <= 8; m++ {
		c := GreedyCover(pts, m, 0.15)
		cov := CoverageOf(pts, c, 0.15)
		if cov < prev {
			t.Fatalf("coverage decreased: m=%d cov=%d prev=%d", m, cov, prev)
		}
		prev = cov
	}
}

func TestPolytopeClone(t *testing.T) {
	p := newPolytope(3)
	p.Add(Halfspace{Normal: []float64{1, -1, 0}})
	c := p.Clone()
	c.Add(Halfspace{Normal: []float64{0, 1, -1}})
	if len(p.Halfspaces) != 1 {
		t.Error("clone shares halfspace slice with parent")
	}
	c.Halfspaces[0].Normal[0] = 99
	if p.Halfspaces[0].Normal[0] != 1 {
		t.Error("clone shares normal storage with parent")
	}
}

func TestVerticesBudgetError(t *testing.T) {
	// High dimension with many halfspaces exceeds the enumeration budget
	// and must return a descriptive error instead of hanging.
	p := newPolytope(12)
	rng := rand.New(rand.NewSource(44))
	for k := 0; k < 40; k++ {
		w := make([]float64, 12)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		p.Add(Halfspace{Normal: w})
	}
	if _, err := p.VerticesCtx(context.Background()); err == nil {
		t.Error("expected vertex-enumeration budget error at d=12 with 40 halfspaces")
	}
}

func TestZeroNormalHalfspaceIgnored(t *testing.T) {
	p := newPolytope(3)
	p.Add(Halfspace{Normal: []float64{0, 0, 0}})
	vs, err := p.VerticesCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 {
		t.Errorf("zero-normal halfspace changed the vertex set: %d vertices", len(vs))
	}
}

func TestRepairFeasibility(t *testing.T) {
	p := newPolytope(3)
	p.Add(Halfspace{Normal: []float64{1, -1, 0}})  // u1 ≥ u2
	p.Add(Halfspace{Normal: []float64{-1, 1, 0}})  // u2 ≥ u1 (degenerate with above)
	p.Add(Halfspace{Normal: []float64{-1, -1, 0}}) // u1+u2 ≤ 0: kills the interior
	removed := p.RepairFeasibility()
	if removed == 0 {
		t.Fatal("repair removed nothing from a contradictory set")
	}
	slack, _, ok := p.InteriorSlack()
	if !ok || slack <= 0 {
		t.Errorf("interior not restored: slack=%v ok=%v", slack, ok)
	}
	// A healthy polytope is untouched.
	q := newPolytope(3)
	q.Add(Halfspace{Normal: []float64{1, -1, 0}})
	if got := q.RepairFeasibility(); got != 0 {
		t.Errorf("repair removed %d from a feasible polytope", got)
	}
}
