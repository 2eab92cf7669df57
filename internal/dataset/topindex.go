package dataset

import (
	"math"
	"math/rand"
	"sort"

	"isrl/internal/fault"
	"isrl/internal/lp"
	"isrl/internal/obs"
	"isrl/internal/vec"
)

// topIndex is the exact top-1 candidate set of a dataset: every row that
// can be the top-1 point under some utility u ≥ 0, plus possibly a few that
// cannot. A row is left out only when an LP certificate, rechecked in
// float64, shows it loses to the kept rows by a margin of topTau·Σu under
// every u ≥ 0 — see DESIGN.md §2 "Exact top-1 candidate index".
//
// It also holds read-only column-major copies of the kept rows and of every
// row, which the scans feed to vec.DotCols 32 rows at a time.
type topIndex struct {
	rows []int     // kept row indices, ascending
	cols []float64 // kept rows, column-major: cols[k·len(rows)+i] = Points[rows[i]][k]
	all  []float64 // every row, column-major: all[k·Len()+i] = Points[i][k]
}

const (
	// topTau is the certified margin per unit of utility mass: an excluded
	// row q satisfies u·q ≤ max_c u·c − topTau·Σu for every u ≥ 0. It
	// dwarfs the rounding error of a d-term dot product over values in
	// [0,1] (about d·2⁻⁵³·Σu), so no float evaluation can lift q to a tie.
	topTau = 1e-9

	// The indexed scan serves only utilities whose mass lies in this
	// range: below it the rounding floor of subnormal products is no longer
	// small against topTau·Σu, above it a dot product may overflow.
	topMinSum = 1e-300
	topMaxSum = 1e300

	// topSeedDraws is the number of random utility directions (per
	// dimension) whose top-1 rows seed the kept set without an LP.
	topSeedDraws = 16
)

var (
	mIndexedScans = obs.Default().Counter("dataset.top.indexed_scans")
	mFullScans    = obs.Default().Counter("dataset.top.full_scans")
	mIndexRows    = obs.Default().Gauge("dataset.top.index_rows")
)

// BuildTopIndex builds the dataset's top-1 candidate index, after which
// TopPoint and TopPoints scan only the rows that can be top-1 under a
// non-negative utility and still return the full scan's index bit for bit.
// It runs at most once per dataset and is safe for concurrent use; later
// calls return at once. Points must not be mutated after the first call.
//
// The index is an accelerator, never a requirement: an injected
// dataset.top.index fault or values outside [0,1] leave it unbuilt for the
// dataset's lifetime, and every query takes the full scan. So does a panic
// inside the build (an injected lp.solve panic), which propagates to this
// first caller; an injected lp.solve error only keeps the row it hit.
func (d *Dataset) BuildTopIndex() {
	d.topOnce.Do(func() {
		if err := fault.Hit(fault.PointTopIndex); err != nil {
			return
		}
		rows := topCandidates(d.Points)
		if rows == nil {
			return
		}
		all := make([]int, len(d.Points))
		for i := range all {
			all[i] = i
		}
		d.top.Store(&topIndex{rows: rows, cols: columns(d.Points, rows), all: columns(d.Points, all)})
		mIndexRows.Set(int64(len(rows)))
	})
}

// TopIndexRows returns the number of rows the top-1 index keeps, or -1
// while the index is unbuilt.
func (d *Dataset) TopIndexRows() int {
	if ix := d.top.Load(); ix != nil {
		return len(ix.rows)
	}
	return -1
}

// TopPoint returns the index of the point with the highest utility w.r.t.
// u: the lowest index among the rows whose u·p is largest. With a built
// index and a u the certificate covers (see indexable) it scans only the
// kept rows (same order, same strict comparison, so the same answer);
// otherwise — NaN or Inf components, negative mass beyond the margin, or a
// utility mass outside the certified range — it scans every row.
func (d *Dataset) TopPoint(u []float64) int {
	ix := d.top.Load()
	if ix != nil && indexable(u) {
		mIndexedScans.Inc()
		if k := blockTop(ix.cols, len(ix.rows), u); k >= 0 {
			return ix.rows[k]
		}
		return -1
	}
	mFullScans.Inc()
	if ix != nil {
		return blockTop(ix.all, len(d.Points), u)
	}
	return topScan(d.Points, u)
}

// ScoreRows writes u·Points[lo+j] into dst[j] for every j < len(dst), each
// with vec.Dot's bits. With a built index it runs on the column-major copy
// of every row. Without one it reads the rows in place, four per pass: four
// independent accumulators, each walking u in vec.Dot's order, break the
// one-add-at-a-time latency chain of a lone sum and need no copy.
func (d *Dataset) ScoreRows(u []float64, lo int, dst []float64) {
	if ix := d.top.Load(); ix != nil {
		vec.DotCols(dst, u, ix.all[lo:], len(d.Points))
		return
	}
	pts := d.Points[lo : lo+len(dst)]
	j := 0
	for ; j+4 <= len(pts); j += 4 {
		p0, p1, p2, p3 := pts[j], pts[j+1], pts[j+2], pts[j+3]
		if len(p0) != len(u) || len(p1) != len(u) || len(p2) != len(u) || len(p3) != len(u) {
			break // vec.Dot below panics on the ragged row
		}
		var s0, s1, s2, s3 float64
		for k, uk := range u {
			s0 += uk * p0[k]
			s1 += uk * p1[k]
			s2 += uk * p2[k]
			s3 += uk * p3[k]
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = s0, s1, s2, s3
	}
	for ; j < len(pts); j++ {
		dst[j] = vec.Dot(u, pts[j])
	}
}

// topScan is the full top-1 scan over pts, one vec.Dot per row: the
// reference every block scan must agree with.
func topScan(pts [][]float64, u []float64) int {
	best, bi := math.Inf(-1), -1
	for i, p := range pts {
		if s := vec.Dot(u, p); s > best {
			best, bi = s, i
		}
	}
	return bi
}

// blockTop is topScan over the n rows of the column-major block cols: it
// scores vec.SIMDBlock rows per vec.DotCols call into a stack buffer and
// keeps the first maximum under the same strict comparison.
func blockTop(cols []float64, n int, u []float64) int {
	var buf [vec.SIMDBlock]float64
	best, bi := math.Inf(-1), -1
	for lo := 0; lo < n; lo += len(buf) {
		s := buf[:min(len(buf), n-lo)]
		vec.DotCols(s, u, cols[lo:], n)
		for j, v := range s {
			if v > best {
				best, bi = v, lo+j
			}
		}
	}
	return bi
}

// columns returns the listed rows of pts as one column-major block:
// element k·len(rows)+i is pts[rows[i]][k].
func columns(pts [][]float64, rows []int) []float64 {
	n := len(rows)
	cols := make([]float64, n*len(pts[0]))
	for i, r := range rows {
		for k, v := range pts[r] {
			cols[k*n+i] = v
		}
	}
	return cols
}

// indexable reports whether the certificate covers u: every component
// finite, the positive mass Σu⁺ inside [topMinSum, topMaxSum], and the
// negative mass Σu⁻ at most topTau·Σu⁺/4. On rows in [0,1] the negative
// part moves any score by at most Σu⁻, so an excluded row still loses by
// (3/4)·topTau·Σu⁺ — see DESIGN.md. Vertices of a utility range carry
// components like −5.55e−17 from rounding; this keeps them on the index.
func indexable(u []float64) bool {
	var pos, neg float64
	for _, v := range u {
		switch {
		case v >= 0 && v <= math.MaxFloat64:
			pos += v
		case v < 0 && v >= -math.MaxFloat64:
			neg -= v
		default: // NaN or ±Inf
			return false
		}
	}
	return pos >= topMinSum && pos <= topMaxSum && neg <= topTau*pos/4
}

// topCandidates returns, in ascending order, the rows of pts the index
// keeps, or nil when the certificate argument does not apply (ragged rows
// or values outside [0,1]).
//
// Rows that are top-1 under the d axis utilities or a fixed set of random
// ones are kept outright: a row that attains the maximum somewhere can
// never carry a certificate. Every other row is then tested against the
// kept set; one that fails is kept too, and a second pass re-tests those
// tentative keeps against the rest. Each exclusion is certified by rows
// that are kept or excluded later, so by induction over the exclusion order
// every excluded row loses by topTau·Σu to a finally kept one.
func topCandidates(pts [][]float64) []int {
	if len(pts) == 0 {
		return nil
	}
	d := len(pts[0])
	for _, p := range pts {
		if len(p) != d {
			return nil
		}
		for _, v := range p {
			if !(v >= 0 && v <= 1) {
				return nil
			}
		}
	}
	keep := make([]bool, len(pts))
	var kept []int
	mark := func(i int) {
		if !keep[i] {
			keep[i] = true
			kept = append(kept, i)
		}
	}
	u := make([]float64, d)
	for k := range u {
		for j := range u {
			u[j] = 0
		}
		u[k] = 1
		mark(topScan(pts, u))
	}
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < topSeedDraws*d; s++ {
		for j := range u {
			u[j] = rng.ExpFloat64()
		}
		mark(topScan(pts, u))
	}
	seeds := len(kept)

	var c certifier
	for i, q := range pts {
		if !keep[i] && !c.certified(pts, kept, q) {
			mark(i)
		}
	}
	others := make([]int, 0, len(kept))
	for j := len(kept) - 1; j >= seeds; j-- {
		others = append(append(others[:0], kept[:j]...), kept[j+1:]...)
		if c.certified(pts, others, pts[kept[j]]) {
			kept = append(kept[:j], kept[j+1:]...)
		}
	}
	sort.Ints(kept)
	return kept
}

// certifier solves the exclusion LP for one row q against a candidate set
// C, reusing its problem buffers across calls:
//
//	maximize s  subject to  −Σ_c λ_c·c_k + s ≤ 1 − q_k  (each attribute k)
//	                         Σ_c λ_c ≤ 1,   λ, s ≥ 0
//
// which is "maximize the margin t = s − 1 with Σλ_c·c ≥ q + t·1"; every
// right-hand side is non-negative, so the slack basis is feasible and the
// simplex needs no phase 1.
type certifier struct {
	prob  lp.Problem
	coefs []float64
}

// certified reports whether the rows cands of pts certify q: the LP margin
// reaches 2·topTau and the rechecked λ satisfies the certificate with
// margin topTau in exact arithmetic. An LP failure of any kind is "not
// certified" — the row is kept, which is always safe.
func (c *certifier) certified(pts [][]float64, cands []int, q []float64) bool {
	m, d := len(cands), len(q)
	if m == 0 {
		return false
	}
	nv := m + 1
	if cap(c.coefs) < (d+1)*nv {
		c.coefs = make([]float64, (d+1)*nv)
	}
	c.prob.NumVars = nv
	if cap(c.prob.Maximize) < nv {
		c.prob.Maximize = make([]float64, nv)
	}
	c.prob.Maximize = c.prob.Maximize[:nv]
	for j := range c.prob.Maximize {
		c.prob.Maximize[j] = 0
	}
	c.prob.Maximize[m] = 1
	c.prob.Constraints = c.prob.Constraints[:0]
	for k := 0; k <= d; k++ {
		row := c.coefs[k*nv : (k+1)*nv]
		if k < d {
			for j, ci := range cands {
				row[j] = -pts[ci][k]
			}
			row[m] = 1
			c.prob.AddLE(row, 1-q[k])
		} else {
			for j := range cands {
				row[j] = 1
			}
			row[m] = 0
			c.prob.AddLE(row, 1)
		}
	}
	res := lp.Solve(&c.prob)
	if res.Status != lp.Optimal || res.X[m]-1 < 2*topTau {
		return false
	}
	return recheck(pts, cands, res.X[:m], q)
}

// recheck verifies a candidate certificate λ in float64 with explicit
// rounding slack, so that in exact arithmetic λ ≥ 0, Σλ ≤ 1 and
// Σλ_c·c_k ≥ q_k + topTau on every attribute. λ is clamped at zero and
// shrunk by 1e-10 first, which keeps an LP-tight Σλ = 1 clear of the
// rounding slack at a cost far below the 2·topTau margin the LP achieved.
func recheck(pts [][]float64, cands []int, lambda, q []float64) bool {
	m := len(cands)
	var sum float64
	for j, v := range lambda {
		if v < 0 {
			lambda[j] = 0
		}
		sum += lambda[j]
	}
	scale := 1 - 1e-10
	if sum > 1 {
		scale /= sum
	}
	sum = 0
	for j := range lambda {
		lambda[j] *= scale
		sum += lambda[j]
	}
	// A sum of m+1 non-negative terms of at most 1 errs by under
	// (m+1)·2⁻⁵³ in total; twice that, plus the rounding of the comparison
	// operands themselves, is a safe slack.
	slack := float64(m+4) * 0x1p-52
	if !(sum <= 1-slack) {
		return false
	}
	for k, qk := range q {
		var s float64
		for j, ci := range cands {
			s += lambda[j] * pts[ci][k]
		}
		if !(s >= qk+topTau+slack) {
			return false
		}
	}
	return true
}
