package vec

import "fmt"

// Blocked GEMM kernels for the batched neural-network and scoring paths.
//
// Every kernel computes each output element with a single accumulator that
// walks the shared dimension k in index order — exactly the accumulation
// order of the serial Dot loop — so a batched result is bit-identical
// to the corresponding sequence of single-vector products. Speed comes only
// from working on *independent* output elements at once, never from
// reassociating a single sum:
//   - The generic Go loops keep four accumulators advancing in lock-step
//     over k, which breaks the one-add-per-cycle latency chain of a lone
//     accumulator.
//   - MatMul, MatMulAcc, MatMulTNAcc and DotCols, whose B rows are
//     contiguous along the outputs, run every whole block of SIMDBlock = 32
//     contiguous outputs through an AVX2 kernel (gemm_amd64.s) when the CPU
//     has AVX2 and the OS saves the ymm registers. Each of the kernel's 32 lanes is one output: it
//     broadcasts a[p], multiplies by B's row with VMULPD and adds with VADDPD,
//     p in index order. That is the MULSD-then-ADDSD pair Go emits for
//     s += a*b at its default GOAMD64=v1 (and v2), so the lanes round exactly
//     as the scalar loop does. FMA is never used: it rounds once where the
//     loop rounds twice. (At GOAMD64=v3 the compiler may fuse the scalar
//     loops themselves, which moves every trained weight on its own.)
//   - The generic loops run the narrower tails, and everything on other
//     GOARCH or on CPUs without AVX2. The choice is made once at start-up,
//     with no flag; SIMD names the kernels this process selected: this one,
//     the SELU kernel of selu.go, and the simplex row update of
//     subscaled.go.
//   - SubScaled, the LP's dst[j] -= f·src[j], takes whole blocks of four
//     through its own AVX2 kernel (subscaled_amd64.s): one VMULPD then one
//     VSUBPD, the MULSD/SUBSD pair of the scalar loop, never FMA. Its
//     generic loop writes the product as float64(f*src[j]), so no GOARCH
//     fuses it either.
//   - MatMulNT reads B's rows along k, so it stays on the generic loop; a
//     caller that wants SIMD packs Bᵀ and calls MatMulAcc.

// SIMDBlock is the number of contiguous outputs one SIMD kernel call
// computes. Output runs narrower than a block take the generic loop.
const SIMDBlock = 32

// SIMD names the kernels this process selected at start-up: "avx2+fma" when
// the GEMM and SubScaled kernels and the SELU kernel (selu.go) run, "avx2"
// when only the GEMM and SubScaled kernels do, and "generic" when none does.
func SIMD() string {
	switch {
	case hasSELU:
		return "avx2+fma"
	case hasAVX2:
		return "avx2"
	}
	return "generic"
}

// mulAddRow sets dst[j] = init[j] + Σ_{p<n} a[p·as]·b[p·bs+j] for every
// j < len(dst), walking p in index order per element. init may be dst
// itself. Every bound is checked here, so the SIMD kernel it hands whole
// blocks to never reads or writes out of range.
func mulAddRow(dst, init, a []float64, as int, b []float64, bs, n int) {
	m := len(dst)
	if len(init) < m || n < 0 || as < 0 || bs < 0 {
		panic(fmt.Sprintf("vec: mulAddRow bad shape: dst %d, init %d, n %d, strides %d/%d", m, len(init), n, as, bs))
	}
	if n == 0 || m == 0 {
		copy(dst, init[:m])
		return
	}
	if (n-1)*as >= len(a) || (n-1)*bs+m > len(b) {
		panic(fmt.Sprintf("vec: mulAddRow out of range: a %d for %d×%d, b %d for %d×%d+%d", len(a), n, as, len(b), n, bs, m))
	}
	j := mulAddSIMD(dst, init, a, as, b, bs, n)
	mulAddGeneric(dst[j:], init[j:m], a, as, b[j:], bs, n)
}

// DotCols sets dst[j] = Σ_{p<len(u)} u[p]·b[p·bs+j] for every j < len(dst):
// the dot product of u with column j of a column-major block whose row p
// starts at b[p·bs]. Each output has Dot's bits: it starts from zero and
// adds the rounded products in Dot's order, so a kernel lane makes the same
// MULSD/ADDSD steps as Dot's loop.
func DotCols(dst, u, b []float64, bs int) {
	// Each block starts from a zero block nothing writes. Zeroing dst
	// first made a d=4 top-1 scan about a quarter slower on an AVX2 host:
	// the kernel's 32-byte init loads then follow eight-byte stores to the
	// same lines.
	for len(dst) > SIMDBlock {
		mulAddRow(dst[:SIMDBlock], zeroBlock[:], u, 1, b, bs, len(u))
		dst, b = dst[SIMDBlock:], b[SIMDBlock:]
	}
	mulAddRow(dst, zeroBlock[:len(dst)], u, 1, b, bs, len(u))
}

// zeroBlock is DotCols' read-only zero init.
var zeroBlock [SIMDBlock]float64

// mulAddGeneric is mulAddRow's portable loop: four independent output
// accumulators advance together over p.
func mulAddGeneric(dst, init, a []float64, as int, b []float64, bs, n int) {
	m := len(dst)
	j := 0
	for ; j+4 <= m; j += 4 {
		s0, s1, s2, s3 := init[j], init[j+1], init[j+2], init[j+3]
		for p := 0; p < n; p++ {
			ap := a[p*as]
			bp := b[p*bs+j : p*bs+j+4 : p*bs+j+4]
			s0 += ap * bp[0]
			s1 += ap * bp[1]
			s2 += ap * bp[2]
			s3 += ap * bp[3]
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = s0, s1, s2, s3
	}
	for ; j < m; j++ {
		s := init[j]
		for p := 0; p < n; p++ {
			s += a[p*as] * b[p*bs+j]
		}
		dst[j] = s
	}
}

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

// Transpose stores Aᵀ into dst and returns dst (dst is reshaped as needed; it
// must not alias A). It is how a caller packs a row-major weight matrix for
// the SIMD path of MatMulAcc and MatMulTNAcc.
func Transpose(dst, a *Mat) *Mat {
	dst = EnsureMat(dst, a.Cols, a.Rows)
	r := a.Rows
	i := 0
	// Four source rows at a time, so each destination row takes four
	// contiguous stores per visit: about twice as fast as one row at a time
	// at the paper's 64×101 layer.
	for ; i+4 <= r; i += 4 {
		r0, r1, r2, r3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		for j, v := range r0 {
			d := dst.Data[j*r+i : j*r+i+4 : j*r+i+4]
			d[0], d[1], d[2], d[3] = v, r1[j], r2[j], r3[j]
		}
	}
	for ; i < r; i++ {
		for j, v := range a.Row(i) {
			dst.Data[j*r+i] = v
		}
	}
	return dst
}

// MatMul stores A·B into dst and returns dst (dst is reshaped as needed; it
// must not alias A or B). Each dst element accumulates over k in index
// order, matching Dot of each A row with each B column.
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
// element. B's rows are contiguous along the outputs, so each dst row is one
// mulAddRow over A's row.
func gemmNN(dst, a, b *Mat, acc bool) {
	for i := 0; i < a.Rows; i++ {
		drow := dst.Row(i)
		if !acc {
			Fill(drow, 0)
		}
		mulAddRow(drow, drow, a.Row(i), 1, b.Data, b.Cols, a.Cols)
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
	// Row o of dst walks column o of A (stride m) against B's rows.
	n, m, k := a.Rows, a.Cols, b.Cols
	if n == 0 {
		return dst
	}
	for o := 0; o < m; o++ {
		drow := dst.Row(o)
		mulAddRow(drow, drow, a.Data[o:], m, b.Data, k, n)
	}
	return dst
}
