package vec

import (
	"fmt"
	"math"
)

// Mat is a dense row-major matrix. The zero value is an empty matrix; use
// NewMat to allocate one with a given shape.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMat returns a zeroed Rows×Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("vec: NewMat negative shape %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at row i, column j.
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice sharing the matrix storage.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec stores m·x into dst and returns dst.
func (m *Mat) MulVec(dst, x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("vec: MulVec shape mismatch %dx%d by %d", m.Rows, m.Cols, len(x)))
	}
	dst = ensure(dst, m.Rows)
	for i := 0; i < m.Rows; i++ {
		dst[i] = Dot(m.Row(i), x)
	}
	return dst
}

// MulTransVec stores mᵀ·x into dst and returns dst.
func (m *Mat) MulTransVec(dst, x []float64) []float64 {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("vec: MulTransVec shape mismatch %dx%d by %d", m.Rows, m.Cols, len(x)))
	}
	dst = ensure(dst, m.Cols)
	Fill(dst, 0)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		xi := x[i]
		for j, rij := range row {
			dst[j] += rij * xi
		}
	}
	return dst
}

// SolveLinear solves the square system A·x = b by Gaussian elimination with
// partial pivoting. A and b are left unmodified. It reports failure when the
// system is (numerically) singular, i.e. a pivot falls below tol.
func SolveLinear(A *Mat, b []float64, tol float64) ([]float64, bool) {
	var s LinSolver
	return s.Solve(nil, A, b, tol)
}

// LinSolver is reusable scratch for repeated SolveLinear-style solves of
// similar size, avoiding the per-call augmented-matrix allocation. The zero
// value is ready to use; not safe for concurrent use.
type LinSolver struct {
	aug Mat
}

// Solve is SolveLinear writing the solution into dst (grown when too small).
// The elimination is arithmetic-for-arithmetic the same as SolveLinear, so
// results are bit-identical. On failure dst's contents are unspecified.
func (s *LinSolver) Solve(dst []float64, A *Mat, b []float64, tol float64) ([]float64, bool) {
	n := A.Rows
	if A.Cols != n || len(b) != n {
		panic(fmt.Sprintf("vec: SolveLinear shape mismatch %dx%d, b=%d", A.Rows, A.Cols, len(b)))
	}
	if tol <= 0 {
		tol = 1e-12
	}
	// Work on an augmented copy.
	if cap(s.aug.Data) < n*(n+1) {
		s.aug.Data = make([]float64, n*(n+1))
	}
	s.aug.Rows, s.aug.Cols = n, n+1
	s.aug.Data = s.aug.Data[:n*(n+1)]
	aug := &s.aug
	for i := 0; i < n; i++ {
		copy(aug.Row(i)[:n], A.Row(i))
		aug.Set(i, n, b[i])
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		p := col
		best := math.Abs(aug.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(aug.At(r, col)); v > best {
				best, p = v, r
			}
		}
		if best < tol {
			return nil, false
		}
		if p != col {
			pr, cr := aug.Row(p), aug.Row(col)
			for j := range pr {
				pr[j], cr[j] = cr[j], pr[j]
			}
		}
		piv := aug.At(col, col)
		for r := col + 1; r < n; r++ {
			f := aug.At(r, col) / piv
			if f == 0 {
				continue
			}
			rr, cr := aug.Row(r), aug.Row(col)
			for j := col; j <= n; j++ {
				rr[j] -= f * cr[j]
			}
		}
	}
	// Back substitution.
	x := ensure(dst, n)
	for i := n - 1; i >= 0; i-- {
		s := aug.At(i, n)
		row := aug.Row(i)
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x, true
}
