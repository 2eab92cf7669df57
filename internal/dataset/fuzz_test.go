package dataset

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"isrl/internal/vec"
)

// skylineBNL is the skyline's reference: the same sum-sorted serial
// block-nested loop with no signature screen, so a skyline must return the
// very rows it returns, in its order.
func skylineBNL(pts [][]float64) [][]float64 {
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	sums := make([]float64, len(pts))
	for i, p := range pts {
		sums[i] = vec.Sum(p)
	}
	sort.Slice(idx, func(a, b int) bool { return sums[idx[a]] > sums[idx[b]] })
	var sky [][]float64
	for _, i := range idx {
		dominated := false
		for _, s := range sky {
			if Dominates(s, pts[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			sky = append(sky, pts[i])
		}
	}
	return sky
}

// FuzzSkyline requires the skyline to return the reference BNL's rows —
// the same row slices, in the same order — on every supported generator, on
// coarse grids full of ties and repeated rows, at dimensions past the
// signature's 64 bits, and on rows salted with NaN, ±Inf, negative and >1
// values. On the generators' data it also checks the two skyline
// invariants: no survivor is dominated, and the maximum utility is
// preserved for random utility vectors.
func FuzzSkyline(f *testing.F) {
	f.Add(int64(1), uint16(50), uint8(2), uint8(0))
	f.Add(int64(2), uint16(200), uint8(4), uint8(1))
	f.Add(int64(3), uint16(120), uint8(3), uint8(2))
	f.Add(int64(4), uint16(300), uint8(2), uint8(3))
	f.Add(int64(5), uint16(80), uint8(5), uint8(4))
	f.Add(int64(6), uint16(60), uint8(1), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, n16 uint16, d8, kind uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(n16)%400
		d := 2 + int(d8)%4
		var ds *Dataset
		switch kind % 6 {
		case 0:
			ds = Anticorrelated(rng, n, d)
		case 1:
			ds = Independent(rng, n, d)
		case 2:
			ds = Correlated(rng, n, d)
		case 3: // a coarse grid: tied sums, tied levels and repeated rows
			ds = &Dataset{}
			levels := 1 + int(d8)%6
			for i := 0; i < n; i++ {
				p := make([]float64, d)
				for k := range p {
					p[k] = float64(1+rng.Intn(levels)) / float64(levels)
				}
				ds.Points = append(ds.Points, p)
			}
		case 4: // values outside (0,1], NaN and ±Inf among generated rows
			ds = Independent(rng, n, d)
			awkward := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5, 0, math.Copysign(0, -1), 1.5, 1e300, -1e300}
			for _, p := range ds.Points {
				if rng.Intn(8) == 0 {
					p[rng.Intn(d)] = awkward[rng.Intn(len(awkward))]
				}
			}
		default: // dimensions around the signature's 64 bits
			ds = Anticorrelated(rng, 2+n%40, 60+int(d8)%10)
		}
		sky := ds.Skyline()
		ref := skylineBNL(ds.Points)
		if sky.Len() != len(ref) {
			t.Fatalf("skyline has %d rows, reference BNL %d", sky.Len(), len(ref))
		}
		for i, p := range sky.Points {
			if &p[0] != &ref[i][0] {
				t.Fatalf("skyline row %d is %v, reference BNL row %v", i, p, ref[i])
			}
		}
		if kind%6 > 3 {
			return // the invariants below assume finite values in (0,1]
		}
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
