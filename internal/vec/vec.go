// Package vec provides the dense vector and matrix kernels used by the
// geometry, linear-programming and neural-network packages.
//
// Everything operates on plain []float64 slices so callers can share storage
// with other representations without conversions. Functions that write into a
// destination slice follow the stdlib convention of taking dst first and
// returning it, allocating only when dst is nil or mis-sized.
package vec

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b.
// It panics if the lengths differ, since a silent truncation would corrupt
// every geometric predicate built on top of it.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Dot length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i, ai := range a {
		s += ai * b[i]
	}
	return s
}

// Norm returns the Euclidean (L2) norm of a.
func Norm(a []float64) float64 {
	var s float64
	for _, ai := range a {
		s += ai * ai
	}
	return math.Sqrt(s)
}

// Dist returns the Euclidean distance between a and b.
func Dist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Dist length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i, ai := range a {
		d := ai - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Sub stores a-b into dst and returns dst. A nil or mis-sized dst is
// reallocated.
func Sub(dst, a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Sub length mismatch %d != %d", len(a), len(b)))
	}
	dst = ensure(dst, len(a))
	for i := range a {
		dst[i] = a[i] - b[i]
	}
	return dst
}

// Add stores a+b into dst and returns dst.
func Add(dst, a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Add length mismatch %d != %d", len(a), len(b)))
	}
	dst = ensure(dst, len(a))
	for i := range a {
		dst[i] = a[i] + b[i]
	}
	return dst
}

// Scale stores s*a into dst and returns dst.
func Scale(dst []float64, s float64, a []float64) []float64 {
	dst = ensure(dst, len(a))
	for i := range a {
		dst[i] = s * a[i]
	}
	return dst
}

// AddScaled stores a + s*b into dst and returns dst (axpy).
func AddScaled(dst, a []float64, s float64, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: AddScaled length mismatch %d != %d", len(a), len(b)))
	}
	dst = ensure(dst, len(a))
	for i := range a {
		dst[i] = a[i] + s*b[i]
	}
	return dst
}

// Mid stores (a+b)/2 into dst and returns dst.
func Mid(dst, a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Mid length mismatch %d != %d", len(a), len(b)))
	}
	dst = ensure(dst, len(a))
	for i := range a {
		dst[i] = (a[i] + b[i]) / 2
	}
	return dst
}

// Clone returns a fresh copy of a.
func Clone(a []float64) []float64 {
	c := make([]float64, len(a))
	copy(c, a)
	return c
}

// Sum returns the sum of the entries of a.
func Sum(a []float64) float64 {
	var s float64
	for _, ai := range a {
		s += ai
	}
	return s
}

// Min returns the smallest entry of a. It panics on an empty slice.
func Min(a []float64) float64 {
	if len(a) == 0 {
		panic("vec: Min of empty slice")
	}
	m := a[0]
	for _, ai := range a[1:] {
		if ai < m {
			m = ai
		}
	}
	return m
}

// Max returns the largest entry of a. It panics on an empty slice.
func Max(a []float64) float64 {
	if len(a) == 0 {
		panic("vec: Max of empty slice")
	}
	m := a[0]
	for _, ai := range a[1:] {
		if ai > m {
			m = ai
		}
	}
	return m
}

// ArgMax returns the index of the largest entry of a, breaking ties toward
// the smallest index. It panics on an empty slice.
func ArgMax(a []float64) int {
	if len(a) == 0 {
		panic("vec: ArgMax of empty slice")
	}
	k := 0
	for i, ai := range a {
		if ai > a[k] {
			k = i
		}
	}
	return k
}

// Normalize scales a in place to unit L2 norm and returns its former norm.
// A zero vector is left untouched and 0 is returned.
func Normalize(a []float64) float64 {
	n := Norm(a)
	if n == 0 {
		return 0
	}
	for i := range a {
		a[i] /= n
	}
	return n
}

// Equal reports whether a and b agree entry-wise within tol.
func Equal(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// AllFinite reports whether every entry of a is finite (no NaN/Inf).
func AllFinite(a []float64) bool {
	for _, ai := range a {
		if math.IsNaN(ai) || math.IsInf(ai, 0) {
			return false
		}
	}
	return true
}

// Fill sets every entry of a to v.
func Fill(a []float64, v float64) {
	for i := range a {
		a[i] = v
	}
}

func ensure(dst []float64, n int) []float64 {
	if len(dst) != n {
		return make([]float64, n)
	}
	return dst
}
