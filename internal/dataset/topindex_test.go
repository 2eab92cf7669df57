package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"isrl/internal/lp"
	"isrl/internal/vec"
)

// topUtilities returns the utility mix the equivalence tests probe: random
// simplex points, the axes, vectors with some components zeroed, integer
// weights (exact dot products, so ties stay exact), vectors with tiny
// negative components, and both extremes of the certified mass range.
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
	// Vertices of a utility range carry rounding residue: tiny negative
	// components, well inside the certificate's topTau·Σu⁺/4 allowance.
	for i := 0; i < random/4; i++ {
		u := make([]float64, d)
		for k := range u {
			u[k] = rng.ExpFloat64()
		}
		for k := range u {
			if rng.Intn(2) == 0 {
				u[k] = -rng.Float64() * 1e-16
			}
		}
		us = append(us, u)
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

// Utilities outside the certificate's reach — a NaN or infinite component,
// negative mass beyond topTau·Σu⁺/4, zero mass, or mass beyond the overflow
// guard — take the full scan, and still get the full scan's answer
// (including its −1 when every score is NaN). Utilities inside it, rounding
// residue such as −1e−300 or −5.55e−17 included, take the index.
func TestTopIndexFallsBackOutsideCertifiedRange(t *testing.T) {
	ds := Anticorrelated(rand.New(rand.NewSource(6)), 500, 3).Skyline()
	ds.BuildTopIndex()
	if ds.TopIndexRows() >= ds.Len() {
		t.Fatalf("index keeps every row; the fallback test needs a pruned index")
	}
	for _, u := range [][]float64{
		{-1, 0.5, 0.5},
		{0.4, -topTau / 4 * 1.01, 0.6},
		{math.NaN(), 0.5, 0.5},
		{math.Inf(1), 0.2, 0.3},
		{math.Inf(-1), 0.2, 0.3},
		{0, 0, 0},
		{math.MaxFloat64, math.MaxFloat64, 1},
		{1e-310, 0, 0},
	} {
		if indexable(u) {
			t.Fatalf("u=%v is indexable; it must take the full scan", u)
		}
		before := mFullScans.Value()
		if got, want := ds.TopPoint(u), topScan(ds.Points, u); got != want {
			t.Fatalf("u=%v: TopPoint %d, full scan %d", u, got, want)
		}
		if mFullScans.Value() == before {
			t.Fatalf("u=%v: full-scan counter did not move", u)
		}
	}
	for _, u := range [][]float64{
		{0.2, 0.3, 0.5},
		{0.4, -1e-300, 0.6},
		{0.5, -5.55e-17, 0.5},
		{0.4, -topTau / 4 * 0.99, 0.6},
	} {
		if !indexable(u) {
			t.Fatalf("u=%v is not indexable; it must take the index", u)
		}
		before := mIndexedScans.Value()
		if got, want := ds.TopPoint(u), topScan(ds.Points, u); got != want {
			t.Fatalf("u=%v: TopPoint %d, full scan %d", u, got, want)
		}
		if mIndexedScans.Value() != before+1 {
			t.Fatalf("u=%v: indexed-scan counter did not move", u)
		}
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

// The block scans run on vec.DotCols — the kernel on whole 32-row blocks,
// the generic loop on the tail — and must agree with the per-row vec.Dot
// reference bit for bit: every score ScoreRows and Scores write, and the row
// TopPoint returns on the index and on the full scan. The row counts give
// fewer rows than a block, exact blocks and ragged tails. A third of the
// rows sit on a quarter grid and one row is repeated, so integer-weight
// utilities tie exactly; NaN and infinite utilities take the full scan.
func TestBlockScanBitIdentical(t *testing.T) {
	for _, d := range []int{3, 4, 20} {
		for _, n := range []int{1, 7, 31, 32, 33, 70, 100} {
			rng := rand.New(rand.NewSource(int64(100*d + n)))
			ds := &Dataset{}
			for i := 0; i < n; i++ {
				p := make([]float64, d)
				for k := range p {
					if i%3 == 0 {
						p[k] = float64(1+rng.Intn(4)) / 4
					} else {
						p[k] = rng.Float64()
					}
				}
				ds.Points = append(ds.Points, p)
			}
			if n > 2 {
				ds.Points[n-1] = append([]float64(nil), ds.Points[n/2]...)
			}
			ds.BuildTopIndex()
			ix := ds.top.Load()
			if ix == nil {
				t.Fatalf("d=%d n=%d: no index built", d, n)
			}
			us := topUtilities(rng, d, 40)
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				for _, at := range []int{0, d - 1} {
					u := make([]float64, d)
					for k := range u {
						u[k] = rng.Float64()
					}
					u[at] = bad
					us = append(us, u)
				}
			}
			for _, u := range us {
				want := make([]float64, n)
				for i, p := range ds.Points {
					want[i] = vec.Dot(u, p)
				}
				for i, s := range ds.Scores(u, nil) {
					if math.Float64bits(s) != math.Float64bits(want[i]) {
						t.Fatalf("d=%d n=%d u=%v: Scores[%d] = %v, Dot %v", d, n, u, i, s, want[i])
					}
				}
				lo := n / 3
				part := make([]float64, n-lo)
				ds.ScoreRows(u, lo, part)
				for j, s := range part {
					if math.Float64bits(s) != math.Float64bits(want[lo+j]) {
						t.Fatalf("d=%d n=%d u=%v: ScoreRows[%d] = %v, Dot %v", d, n, u, lo+j, s, want[lo+j])
					}
				}
				ref := topScan(ds.Points, u)
				if got := ds.TopPoint(u); got != ref {
					t.Fatalf("d=%d n=%d u=%v: TopPoint %d, topScan %d", d, n, u, got, ref)
				}
				if got := blockTop(ix.all, n, u); got != ref {
					t.Fatalf("d=%d n=%d u=%v: full block scan %d, topScan %d", d, n, u, got, ref)
				}
			}
		}
	}
}
