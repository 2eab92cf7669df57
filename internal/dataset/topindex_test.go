package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"isrl/internal/lp"
)

// topUtilities returns the utility mix the equivalence tests probe: random
// simplex points, the axes, vectors with some components zeroed, integer
// weights (exact dot products, so ties stay exact), and both extremes of
// the certified mass range.
func topUtilities(rng *rand.Rand, d, random int) [][]float64 {
	var us [][]float64
	for i := 0; i < random; i++ {
		u := make([]float64, d)
		for k := range u {
			u[k] = rng.ExpFloat64()
		}
		us = append(us, u)
	}
	for k := 0; k < d; k++ {
		u := make([]float64, d)
		u[k] = 1
		us = append(us, u)
	}
	for i := 0; i < random/4; i++ {
		u := make([]float64, d)
		for k := range u {
			if rng.Intn(2) == 0 {
				u[k] = rng.Float64()
			}
		}
		us = append(us, u)
		w := make([]float64, d)
		for k := range w {
			w[k] = float64(rng.Intn(4))
		}
		us = append(us, w)
	}
	tiny, huge := make([]float64, d), make([]float64, d)
	for k := range tiny {
		tiny[k], huge[k] = 1e-299, 1e299/float64(d)
	}
	return append(us, tiny, huge)
}

// checkTopEquivalence asserts that the indexed TopPoint/TopPoints return
// the full scan's index for every utility.
func checkTopEquivalence(t *testing.T, ds *Dataset, us [][]float64) {
	t.Helper()
	got := ds.TopPoints(us, nil)
	for i, u := range us {
		want := topScan(ds.Points, u)
		if g := ds.TopPoint(u); g != want || got[i] != want {
			t.Fatalf("u=%v: indexed TopPoint %d, TopPoints %d, full scan %d", u, g, got[i], want)
		}
	}
}

// The index must return the full scan's index bit for bit — same row, same
// tie-break — on every generator kind and dimension the exact algorithms
// run at, on the car stand-in, on datasets with duplicated rows and on a
// coarse grid whose integer-weight dot products tie exactly.
func TestTopIndexMatchesFullScan(t *testing.T) {
	type tc struct {
		name string
		ds   *Dataset
	}
	var cases []tc
	for _, kind := range []string{"anti", "indep", "corr"} {
		for d := 2; d <= 6; d++ {
			raw, err := Generate(kind, rand.New(rand.NewSource(int64(10*d))), 800, d)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, tc{fmt.Sprintf("%s_d%d", kind, d), raw.Skyline()})
		}
	}
	car, err := Generate("car", rand.New(rand.NewSource(1)), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tc{"car", car.Skyline()})
	dup := Anticorrelated(rand.New(rand.NewSource(3)), 300, 3).Skyline()
	dup.Points = append(dup.Points, dup.Points...) // every row twice: exact ties everywhere
	cases = append(cases, tc{"duplicated_rows", dup})
	grid := &Dataset{Name: "grid"}
	grng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		p := make([]float64, 3)
		for k := range p {
			p[k] = float64(1+grng.Intn(4)) / 4
		}
		grid.Points = append(grid.Points, p)
	}
	cases = append(cases, tc{"quarter_grid", grid})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.ds.BuildTopIndex()
			rows := c.ds.TopIndexRows()
			if rows <= 0 || rows > c.ds.Len() {
				t.Fatalf("index keeps %d of %d rows", rows, c.ds.Len())
			}
			checkTopEquivalence(t, c.ds, topUtilities(rand.New(rand.NewSource(5)), c.ds.Dim(), 400))
		})
	}
}

// The index prunes: on the anti-correlated d=4 skyline the e2e benchmark
// serves, only a few percent of rows can be top-1 under u ≥ 0.
func TestTopIndexPrunes(t *testing.T) {
	ds := Anticorrelated(rand.New(rand.NewSource(1)), 10000, 4).Skyline()
	ds.BuildTopIndex()
	if rows := ds.TopIndexRows(); rows <= 0 || rows*10 > ds.Len() {
		t.Fatalf("index keeps %d of %d rows, want under a tenth", rows, ds.Len())
	}
}

// Utilities outside the certificate's reach — a negative, NaN or infinite
// component, zero mass, or mass beyond the overflow guard — take the full
// scan, and still get the full scan's answer (including its −1 when every
// score is NaN).
func TestTopIndexFallsBackOutsideCertifiedRange(t *testing.T) {
	ds := Anticorrelated(rand.New(rand.NewSource(6)), 500, 3).Skyline()
	ds.BuildTopIndex()
	if ds.TopIndexRows() >= ds.Len() {
		t.Fatalf("index keeps every row; the fallback test needs a pruned index")
	}
	for _, u := range [][]float64{
		{-1, 0.5, 0.5},
		{0.4, -1e-300, 0.6},
		{math.NaN(), 0.5, 0.5},
		{math.Inf(1), 0.2, 0.3},
		{0, 0, 0},
		{math.MaxFloat64, math.MaxFloat64, 1},
		{1e-310, 0, 0},
	} {
		if !indexable(u) {
			before := mFullScans.Value()
			if got, want := ds.TopPoint(u), topScan(ds.Points, u); got != want {
				t.Fatalf("u=%v: TopPoint %d, full scan %d", u, got, want)
			}
			if mFullScans.Value() == before {
				t.Fatalf("u=%v: full-scan counter did not move", u)
			}
			continue
		}
		t.Fatalf("u=%v is indexable; it must take the full scan", u)
	}
	// In-range utilities take the index.
	before := mIndexedScans.Value()
	ds.TopPoint([]float64{0.2, 0.3, 0.5})
	if mIndexedScans.Value() != before+1 {
		t.Fatal("indexed-scan counter did not move for an in-range utility")
	}
}

// Values outside [0,1] void the certificate's rounding bound (and its
// max_c u·c ≥ 0 step), so no index is built and every query is a full scan.
func TestTopIndexSkipsOutOfRangeValues(t *testing.T) {
	for _, pts := range [][][]float64{
		{{0.5, 0.5}, {1.5, 0.1}},
		{{0.5, 0.5}, {-0.1, 0.9}},
		{{0.5, math.NaN()}, {0.2, 0.9}},
		{{0.5, 0.5}, {0.2}},
	} {
		ds := &Dataset{Points: pts}
		ds.BuildTopIndex()
		if rows := ds.TopIndexRows(); rows != -1 {
			t.Fatalf("points %v: built an index of %d rows", pts, rows)
		}
	}
}

// The certificate check runs in float64 with explicit slack: a λ that
// misses any part of it by a hair is refused.
func TestTopIndexRecheckRefusesWeakCertificates(t *testing.T) {
	pts := [][]float64{{1, 0}, {0, 1}, {0.5, 0.5}}
	cands := []int{0, 1}
	q := []float64{0.4, 0.4}
	if !recheck(pts, cands, []float64{0.5, 0.5}, q) {
		t.Fatal("a certificate with margin 0.1 was refused")
	}
	for _, c := range []struct {
		name   string
		lambda []float64
		q      []float64
	}{
		{"margin below tau", []float64{0.5, 0.5}, []float64{0.5 - topTau/2, 0.4}},
		{"no margin", []float64{0.5, 0.5}, []float64{0.5, 0.5}},
		{"negative weight only", []float64{-0.5, 0.5}, q},
	} {
		if recheck(pts, cands, append([]float64(nil), c.lambda...), c.q) {
			t.Fatalf("%s: certificate accepted", c.name)
		}
	}
	// Σλ above 1 is rescaled, so a certificate that only holds thanks to
	// the excess mass is refused.
	if recheck(pts, cands, []float64{0.6, 0.6}, []float64{0.55, 0.55}) {
		t.Fatal("a certificate relying on Σλ > 1 was accepted")
	}
}

// An independent check of the exclusions from the other side of the
// duality: for every row the index leaves out, the LP
//
//	maximize δ  subject to  u·(q − p) ≥ δ for every kept row p,
//	                        Σu = 1, u ≥ 0
//
// must find no utility under which q beats every kept row (δ* ≤ 0, up to
// the solver's tolerance). A row with δ* > 0 would beat the whole index
// under the witness u*, so the indexed scan would return a row the full
// scan does not.
func TestTopIndexExcludesOnlyRowsThatCannotWin(t *testing.T) {
	type tc struct {
		name string
		ds   *Dataset
	}
	car, err := Generate("car", rand.New(rand.NewSource(1)), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []tc{
		{"anti_d3", Anticorrelated(rand.New(rand.NewSource(7)), 400, 3).Skyline()},
		{"anti_d4", Anticorrelated(rand.New(rand.NewSource(8)), 300, 4).Skyline()},
		{"indep_d5", Independent(rand.New(rand.NewSource(9)), 600, 5).Skyline()},
		{"car", car.Skyline()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.ds.BuildTopIndex()
			rows := c.ds.top.Load().rows
			kept := map[int]bool{}
			for _, i := range rows {
				kept[i] = true
			}
			if len(kept) == c.ds.Len() {
				t.Fatalf("index keeps all %d rows; nothing to check", len(kept))
			}
			d := c.ds.Dim()
			for i, q := range c.ds.Points {
				if kept[i] {
					continue
				}
				prob := lp.Problem{NumVars: d + 1, Maximize: make([]float64, d+1), Free: make([]bool, d+1)}
				prob.Maximize[d], prob.Free[d] = 1, true
				sum := make([]float64, d+1)
				for k := 0; k < d; k++ {
					sum[k] = 1
				}
				prob.AddEQ(sum, 1)
				for _, j := range rows {
					p := c.ds.Points[j]
					row := make([]float64, d+1)
					for k := 0; k < d; k++ {
						row[k] = q[k] - p[k]
					}
					row[d] = -1
					prob.AddGE(row, 0)
				}
				res := lp.Solve(&prob)
				if res.Status != lp.Optimal {
					t.Fatalf("row %d: witness LP %v", i, res.Status)
				}
				if delta := res.X[d]; delta > 1e-10 {
					t.Fatalf("excluded row %d is the unique top-1 under u=%v by margin %g (TopPoint %d)",
						i, res.X[:d], delta, c.ds.TopPoint(res.X[:d]))
				}
			}
		})
	}
}
