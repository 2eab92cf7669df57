package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestExtremePointsSquare(t *testing.T) {
	// Four corners plus interior points: only corners are extreme.
	pts := [][]float64{
		{0, 0}, {1, 0}, {0, 1}, {1, 1}, // extreme
		{0.5, 0.5}, {0.25, 0.75}, // interior
		{0.5, 0}, // edge midpoint: convex combination of corners
	}
	got := ExtremePoints(pts)
	want := map[int]bool{0: true, 1: true, 2: true, 3: true}
	if len(got) != 4 {
		t.Fatalf("extreme points = %v, want the 4 corners", got)
	}
	for _, i := range got {
		if !want[i] {
			t.Errorf("index %d wrongly reported extreme", i)
		}
	}
}

func TestExtremePointsDegenerate(t *testing.T) {
	if got := ExtremePoints(nil); got != nil {
		t.Errorf("empty input: %v", got)
	}
	if got := ExtremePoints([][]float64{{0.3, 0.7}}); len(got) != 1 || got[0] != 0 {
		t.Errorf("single point must be extreme: %v", got)
	}
	// Duplicate points: a duplicate IS a convex combination of the other
	// copy, so at most one of each pair survives; the hull still covers
	// both corners.
	pts := [][]float64{{0, 0}, {0, 0}, {1, 1}}
	got := ExtremePoints(pts)
	if len(got) == 0 || len(got) > 2 {
		t.Errorf("duplicates handled badly: %v", got)
	}
}

// Property: every point is a convex combination of the reported extreme
// points — verified indirectly: dropping non-extreme points never changes
// the max of a linear function over the set.
func TestExtremePointsPreserveLinearMaxima(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		d := 2 + rng.Intn(3)
		n := 5 + rng.Intn(15)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = SampleSimplex(rng, d)
		}
		ext := ExtremePoints(pts)
		if len(ext) == 0 {
			t.Fatal("no extreme points found")
		}
		for k := 0; k < 10; k++ {
			w := make([]float64, d)
			for i := range w {
				w[i] = rng.NormFloat64()
			}
			full := math.Inf(-1)
			for _, p := range pts {
				if s := dot(w, p); s > full {
					full = s
				}
			}
			hull := math.Inf(-1)
			for _, i := range ext {
				if s := dot(w, pts[i]); s > hull {
					hull = s
				}
			}
			if math.Abs(full-hull) > 1e-7 {
				t.Fatalf("trial %d: linear max differs: full %v hull %v", trial, full, hull)
			}
		}
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
