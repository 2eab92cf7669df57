// Package dataset provides the data substrate of the reproduction: the
// synthetic generators used by the paper (anti-correlated, correlated, and
// independent distributions in the style of the Börzsönyi skyline-operator
// generator), skyline preprocessing (the paper evaluates on skyline points
// only), (0,1] normalization, CSV I/O, and synthetic stand-ins for the
// paper's two real Kaggle datasets (Car and Player) built to match their
// size, dimensionality and correlation structure — see DESIGN.md §3.
package dataset

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"isrl/internal/vec"
)

// Dataset is a set of tuples, each a point in (0,1]^d where larger values
// are preferred (the paper's normalization).
type Dataset struct {
	Name   string
	Points [][]float64
	Attrs  []string // optional attribute names, len == Dim when present

	topOnce sync.Once                // guards the one BuildTopIndex attempt
	top     atomic.Pointer[topIndex] // nil until BuildTopIndex succeeds
}

// Dim returns the dimensionality (0 for an empty dataset).
func (d *Dataset) Dim() int {
	if len(d.Points) == 0 {
		return 0
	}
	return len(d.Points[0])
}

// Len returns the number of tuples.
func (d *Dataset) Len() int { return len(d.Points) }

// Clone returns a deep copy.
func (d *Dataset) Clone() *Dataset {
	c := &Dataset{Name: d.Name, Attrs: append([]string(nil), d.Attrs...)}
	c.Points = make([][]float64, len(d.Points))
	for i, p := range d.Points {
		c.Points[i] = vec.Clone(p)
	}
	return c
}

// Fingerprint hashes the exact float bits of every tuple (FNV-1a over
// shape + IEEE-754 words). Two datasets share a fingerprint iff every
// dot-product an algorithm can compute over them is bit-identical — the
// precondition for replaying a journaled answer trace against "the same"
// dataset after a restart.
func (d *Dataset) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	mix(uint64(d.Len()))
	mix(uint64(d.Dim()))
	for _, p := range d.Points {
		for _, v := range p {
			mix(math.Float64bits(v))
		}
	}
	return h
}

// Validate checks the dataset invariants: rectangular shape and all values
// in (0,1].
func (d *Dataset) Validate() error {
	dim := d.Dim()
	for i, p := range d.Points {
		if len(p) != dim {
			return fmt.Errorf("dataset %q: point %d has %d attrs, want %d", d.Name, i, len(p), dim)
		}
		for j, v := range p {
			if !(v > 0 && v <= 1) || math.IsNaN(v) {
				return fmt.Errorf("dataset %q: point %d attr %d = %v outside (0,1]", d.Name, i, j, v)
			}
		}
	}
	return nil
}

// Normalize rescales every attribute to (0,1] by dividing by the column
// maximum after shifting the column minimum to a small positive floor. It
// returns the dataset for chaining. Columns with a single value map to 1.
func (d *Dataset) Normalize() *Dataset {
	dim := d.Dim()
	if dim == 0 {
		return d
	}
	const floor = 1e-6
	for j := 0; j < dim; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range d.Points {
			if p[j] < lo {
				lo = p[j]
			}
			if p[j] > hi {
				hi = p[j]
			}
		}
		span := hi - lo
		for _, p := range d.Points {
			if span == 0 {
				p[j] = 1
				continue
			}
			p[j] = floor + (1-floor)*(p[j]-lo)/span
		}
	}
	return d
}

// Dominates reports whether a dominates b: a ≥ b on every attribute and
// a > b on at least one (larger preferred).
func Dominates(a, b []float64) bool {
	strictly := false
	for i := range a {
		if a[i] < b[i] {
			return false
		}
		if a[i] > b[i] {
			strictly = true
		}
	}
	return strictly
}

// Skyline returns the dataset restricted to its skyline — the points not
// dominated by any other point. These are exactly the tuples that can be
// top-1 under some non-negative utility vector, the preprocessing every
// compared algorithm applies.
//
// It is one block-nested-loop pass over the points presorted by attribute
// sum, so a point can only be dominated by an earlier one. The pass is
// serial on purpose: its output order — which the dataset fingerprint, and
// so every journaled session, depends on — is then a function of the input
// alone, never of the host's core count.
//
// A dominance signature (skylineSigs) screens each pair first: Dominates
// runs only where the signatures allow it, which skips pairs that cannot
// dominate and so leaves the result, and its order, unchanged.
func (d *Dataset) Skyline() *Dataset {
	pts := d.Points
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	sums := make([]float64, len(pts))
	for i, p := range pts {
		sums[i] = vec.Sum(p)
	}
	sort.Slice(idx, func(a, b int) bool { return sums[idx[a]] > sums[idx[b]] })

	sigs := skylineSigs(pts)
	var sky [][]float64
	var skySigs []uint64
	for _, i := range idx {
		p, sig := pts[i], sigs[i]
		dominated := false
		for k, s := range sky {
			if sig&^skySigs[k] == 0 && Dominates(s, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			sky = append(sky, p)
			skySigs = append(skySigs, sig)
		}
	}
	return &Dataset{Name: d.Name + "-skyline", Points: sky, Attrs: append([]string(nil), d.Attrs...)}
}

// skylineSigs returns one dominance signature per point. Each attribute
// takes k = min(16, 64/d) bits: its value quantized monotonically to a level
// q = min(k, ⌊v·(k+1)⌋) in 0..k, set as q low bits. If s dominates p, every
// level of s is at least p's, so sig(p)&^sig(s) == 0; a pair with
// sig(p)&^sig(s) != 0 cannot dominate. Every signature is 0, which screens
// nothing, when d > 64, the rows are ragged or any value is non-finite
// (NaN passes Dominates' comparisons, and converting ±Inf is undefined).
func skylineSigs(pts [][]float64) []uint64 {
	sigs := make([]uint64, len(pts))
	if len(pts) == 0 || len(pts[0]) == 0 || len(pts[0]) > 64 {
		return sigs
	}
	dim := len(pts[0])
	k := min(16, 64/dim)
	levels := float64(k + 1)
	for i, p := range pts {
		if len(p) != dim {
			clear(sigs)
			return sigs
		}
		var sig uint64
		for j, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				clear(sigs)
				return sigs
			}
			q := k
			if x := v * levels; x <= 0 {
				q = 0
			} else if x < float64(k) {
				q = int(x)
			}
			sig |= (uint64(1)<<q - 1) << (j * k)
		}
		sigs[i] = sig
	}
	return sigs
}

// Scores writes u·pᵢ for every point into dst (allocated when nil or
// mis-sized) and returns it.
func (d *Dataset) Scores(u []float64, dst []float64) []float64 {
	if len(dst) != len(d.Points) {
		dst = make([]float64, len(d.Points))
	}
	d.ScoreRows(u, 0, dst)
	return dst
}

// TopPoints is TopPoint for a batch of utility vectors: slot i of the
// result is TopPoint(us[i]).
func (d *Dataset) TopPoints(us [][]float64, dst []int) []int {
	if len(dst) != len(us) {
		dst = make([]int, len(us))
	}
	for i, u := range us {
		dst[i] = d.TopPoint(u)
	}
	return dst
}

// MaxUtility returns max over points of u·p.
func (d *Dataset) MaxUtility(u []float64) float64 {
	return vec.Dot(u, d.Points[d.TopPoint(u)])
}

// RegretRatio returns the paper's regret ratio of point q over d w.r.t. u:
// (max_p u·p − u·q) / max_p u·p.
func (d *Dataset) RegretRatio(q, u []float64) float64 {
	m := d.MaxUtility(u)
	if m <= 0 {
		return 0
	}
	return (m - vec.Dot(u, q)) / m
}
