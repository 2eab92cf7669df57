package vec

import "fmt"

// Blocked GEMM kernels for the batched neural-network and scoring paths.
//
// Every kernel computes each output element with a single accumulator that
// walks the shared dimension k in index order — exactly the accumulation
// order of the serial Dot/MulVec loops — so a batched result is bit-identical
// to the corresponding sequence of single-vector products. Speed comes from
// register blocking across *independent* output elements (four accumulators
// advancing in lock-step over k), which breaks the one-add-per-cycle latency
// chain of a lone accumulator without ever reassociating a single sum.

// EnsureMat returns m resized to rows×cols, reusing m.Data when it has
// capacity. Contents are unspecified after the call; kernels overwrite their
// destination unless documented otherwise. A nil m allocates fresh.
func EnsureMat(m *Mat, rows, cols int) *Mat {
	if m == nil {
		return NewMat(rows, cols)
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	return m
}

// MatMul stores A·B into dst and returns dst (dst is reshaped as needed; it
// must not alias A or B). Each dst element accumulates over k in index
// order, matching MulVec applied row by row.
func MatMul(dst, a, b *Mat) *Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("vec: MatMul shape mismatch %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst = EnsureMat(dst, a.Rows, b.Cols)
	gemmNN(dst, a, b, false)
	return dst
}

// MatMulAcc accumulates A·B into dst (dst += A·B) and returns dst. dst must
// already have shape a.Rows×b.Cols.
func MatMulAcc(dst, a, b *Mat) *Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("vec: MatMulAcc shape mismatch %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("vec: MatMulAcc dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	gemmNN(dst, a, b, true)
	return dst
}

// gemmNN computes dst = A·B (or dst += A·B when acc), walking k in order per
// element. B is traversed row-wise in the inner loop, so four independent
// column accumulators stream through the same cache lines.
func gemmNN(dst, a, b *Mat, acc bool) {
	n, k, m := a.Rows, a.Cols, b.Cols
	for i := 0; i < n; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		j := 0
		for ; j+4 <= m; j += 4 {
			var s0, s1, s2, s3 float64
			if acc {
				s0, s1, s2, s3 = drow[j], drow[j+1], drow[j+2], drow[j+3]
			}
			for p := 0; p < k; p++ {
				brow := b.Data[p*m+j : p*m+j+4 : p*m+j+4]
				ap := arow[p]
				s0 += ap * brow[0]
				s1 += ap * brow[1]
				s2 += ap * brow[2]
				s3 += ap * brow[3]
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
		}
		for ; j < m; j++ {
			var s float64
			if acc {
				s = drow[j]
			}
			for p := 0; p < k; p++ {
				s += arow[p] * b.Data[p*m+j]
			}
			drow[j] = s
		}
	}
}

// MatMulNT stores A·Bᵀ (+ bias broadcast across rows, when non-nil) into dst
// and returns dst. This is the dense-layer forward shape: X (n×k) times a
// row-major weight matrix W (m×k). Each element starts from bias[j] and
// accumulates over k in index order — bit-identical to the serial
// y[j] = b[j] + Σ w[j,i]·x[i] loop.
func MatMulNT(dst, a, b *Mat, bias []float64) *Mat {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("vec: MatMulNT shape mismatch %dx%d by (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if bias != nil && len(bias) != b.Rows {
		panic(fmt.Sprintf("vec: MatMulNT bias %d, want %d", len(bias), b.Rows))
	}
	dst = EnsureMat(dst, a.Rows, b.Rows)
	n, k, m := a.Rows, a.Cols, b.Rows
	for i := 0; i < n; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		j := 0
		for ; j+4 <= m; j += 4 {
			var s0, s1, s2, s3 float64
			if bias != nil {
				s0, s1, s2, s3 = bias[j], bias[j+1], bias[j+2], bias[j+3]
			}
			// Re-slicing to len(arow) lets the compiler drop the inner
			// bounds checks.
			b0 := b.Row(j)[:len(arow)]
			b1 := b.Row(j + 1)[:len(arow)]
			b2 := b.Row(j + 2)[:len(arow)]
			b3 := b.Row(j + 3)[:len(arow)]
			for p, ap := range arow {
				s0 += ap * b0[p]
				s1 += ap * b1[p]
				s2 += ap * b2[p]
				s3 += ap * b3[p]
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
		}
		for ; j < m; j++ {
			var s float64
			if bias != nil {
				s = bias[j]
			}
			brow := b.Row(j)
			for p := 0; p < k; p++ {
				s += arow[p] * brow[p]
			}
			drow[j] = s
		}
	}
	return dst
}

// MatMulTNAcc accumulates Aᵀ·B into dst (dst += Aᵀ·B) and returns dst. This
// is the weight-gradient shape: G (n×m)ᵀ times X (n×k) summed over the batch
// dimension n in index order — bit-identical to accumulating per-sample
// outer products one transition at a time. dst must have shape a.Cols×b.Cols.
func MatMulTNAcc(dst, a, b *Mat) *Mat {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("vec: MatMulTNAcc shape mismatch (%dx%d)ᵀ by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("vec: MatMulTNAcc dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	n, m, k := a.Rows, a.Cols, b.Cols
	for o := 0; o < m; o++ {
		drow := dst.Row(o)
		j := 0
		for ; j+4 <= k; j += 4 {
			s0, s1, s2, s3 := drow[j], drow[j+1], drow[j+2], drow[j+3]
			for p := 0; p < n; p++ {
				g := a.Data[p*m+o]
				brow := b.Data[p*k+j : p*k+j+4 : p*k+j+4]
				s0 += g * brow[0]
				s1 += g * brow[1]
				s2 += g * brow[2]
				s3 += g * brow[3]
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
		}
		for ; j < k; j++ {
			s := drow[j]
			for p := 0; p < n; p++ {
				s += a.Data[p*m+o] * b.Data[p*k+j]
			}
			drow[j] = s
		}
	}
	return dst
}
