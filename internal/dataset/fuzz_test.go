package dataset

import (
	"math/rand"
	"testing"
)

// FuzzSkyline checks the two skyline invariants on randomized datasets of
// every supported distribution: no survivor is dominated, and the maximum
// utility is preserved for random utility vectors.
func FuzzSkyline(f *testing.F) {
	f.Add(int64(1), uint16(50), uint8(2), uint8(0))
	f.Add(int64(2), uint16(200), uint8(4), uint8(1))
	f.Add(int64(3), uint16(120), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n16 uint16, d8, kind uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(n16)%400
		d := 2 + int(d8)%4
		var ds *Dataset
		switch kind % 3 {
		case 0:
			ds = Anticorrelated(rng, n, d)
		case 1:
			ds = Independent(rng, n, d)
		default:
			ds = Correlated(rng, n, d)
		}
		sky := ds.Skyline()
		if sky.Len() == 0 {
			t.Fatal("empty skyline")
		}
		for i, a := range sky.Points {
			for j, b := range sky.Points {
				if i != j && Dominates(a, b) {
					t.Fatalf("skyline point dominates another")
				}
			}
			if i > 40 {
				break // bound the quadratic check on large skylines
			}
		}
		// Top-1 preservation for a few random utility vectors.
		for k := 0; k < 5; k++ {
			u := make([]float64, d)
			var s float64
			for i := range u {
				u[i] = rng.Float64() + 1e-9
				s += u[i]
			}
			for i := range u {
				u[i] /= s
			}
			if diff := ds.MaxUtility(u) - sky.MaxUtility(u); diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("skyline changed max utility by %v", diff)
			}
		}
	})
}

// FuzzTopIndex builds the top-1 index over small random datasets whose
// values sit on a coarse grid — so rows repeat, and integer-weight
// utilities tie exactly — and requires the indexed TopPoint and TopPoints
// to return the full scan's index for random, axis, sparse and tied
// utilities alike.
func FuzzTopIndex(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(2), uint8(4))
	f.Add(int64(2), uint8(120), uint8(3), uint8(8))
	f.Add(int64(3), uint8(200), uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n8, d8, levels8 uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(n8)
		d := 2 + int(d8)%5
		levels := 1 + int(levels8)%16
		ds := &Dataset{}
		for i := 0; i < n; i++ {
			p := make([]float64, d)
			for k := range p {
				p[k] = float64(1+rng.Intn(levels)) / float64(levels)
			}
			ds.Points = append(ds.Points, p)
		}
		ds.BuildTopIndex()
		if rows := ds.TopIndexRows(); rows <= 0 || rows > n {
			t.Fatalf("index keeps %d of %d rows", rows, n)
		}
		checkTopEquivalence(t, ds, topUtilities(rng, d, 40))
	})
}
