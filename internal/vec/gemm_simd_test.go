package vec

import (
	"math"
	"math/rand"
	"testing"
)

// The shapes the SIMD tests sweep: output widths around the 32-wide block
// (one lane group short, exact, one over, two blocks, two plus a tail, three
// plus a tail), the paper's layer-1 input widths (EA car 25, EA d=4 29, AA
// d=20 61 and 101) with a few odd ones, and batch sizes from empty to five
// candidate groups of 64.
var (
	simdOuts = []int{1, 7, 31, 32, 33, 64, 65, 101}
	simdIns  = []int{1, 25, 29, 33, 61, 101}
	simdRows = []int{0, 1, 2, 5, 64, 320}
)

// awkwardMat fills a matrix with normal values salted with the operands where
// a reordered or fused sum would show first: signed zeros, subnormals, and
// magnitudes far apart.
func awkwardMat(rng *rand.Rand, rows, cols int) *Mat {
	m := randMat(rng, rows, cols)
	for i := range m.Data {
		switch rng.Intn(16) {
		case 0:
			m.Data[i] = math.Copysign(0, -1)
		case 1:
			m.Data[i] = 0
		case 2:
			m.Data[i] = 5e-324 * float64(1+rng.Intn(1000))
		case 3:
			m.Data[i] *= 1e12
		case 4:
			m.Data[i] *= 1e-12
		}
	}
	return m
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// mulAddRow (the SIMD kernel on whole blocks, when this CPU has one) must
// match the generic loop bit for bit, for unit and strided broadcast
// operands, padded B rows, and init aliasing dst.
func TestMulAddRowMatchesGeneric(t *testing.T) {
	t.Logf("SIMD kernel: %s", SIMD())
	rng := rand.New(rand.NewSource(7))
	for _, m := range simdOuts {
		for _, n := range append([]int{0}, simdIns...) {
			for _, as := range []int{1, 3} {
				bs := m + 5 // padded rows: the kernel must read only m of each
				a := awkwardMat(rng, 1, max(1, n*as)).Data
				b := awkwardMat(rng, 1, max(1, n*bs)).Data
				init := awkwardMat(rng, 1, m).Data

				want := make([]float64, m)
				mulAddGeneric(want, init, a, as, b, bs, n)
				got := make([]float64, m)
				mulAddRow(got, init, a, as, b, bs, n)
				sameBits(t, "mulAddRow", got, want)

				inPlace := append([]float64(nil), init...)
				mulAddRow(inPlace, inPlace, a, as, b, bs, n)
				sameBits(t, "mulAddRow in place", inPlace, want)

				// The generic loop itself is the serial single-accumulator sum.
				for j := range want {
					s := init[j]
					for p := 0; p < n; p++ {
						s += a[p*as] * b[p*bs+j]
					}
					if math.Float64bits(s) != math.Float64bits(want[j]) {
						t.Fatalf("m=%d n=%d: generic[%d] = %v, serial %v", m, n, j, want[j], s)
					}
				}
			}
		}
	}
}

// MatMul, MatMulAcc and MatMulTNAcc, which route whole output blocks through
// the SIMD kernel, must equal the serial in-order sums at every shape the
// dense layers use, including an empty batch and a non-zero accumulator.
func TestGEMMKernelsBitIdenticalAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, out := range simdOuts {
		for _, in := range simdIns {
			for _, rows := range simdRows {
				x := awkwardMat(rng, rows, in)
				wT := awkwardMat(rng, in, out)

				// Forward shape: Y = X·Wᵀ from zero and from a bias-filled Y.
				want := NewMat(rows, out)
				for r := 0; r < rows; r++ {
					for o := 0; o < out; o++ {
						var s float64
						for p := 0; p < in; p++ {
							s += x.At(r, p) * wT.At(p, o)
						}
						want.Set(r, o, s)
					}
				}
				sameBits(t, "MatMul", MatMul(nil, x, wT).Data, want.Data)

				bias := awkwardMat(rng, 1, out).Data
				y := NewMat(rows, out)
				for r := 0; r < rows; r++ {
					copy(y.Row(r), bias)
					for o := 0; o < out; o++ {
						s := bias[o]
						for p := 0; p < in; p++ {
							s += x.At(r, p) * wT.At(p, o)
						}
						want.Set(r, o, s)
					}
				}
				sameBits(t, "MatMulAcc", MatMulAcc(y, x, wT).Data, want.Data)

				// Weight-gradient shape: dWᵀ (in×out) += Xᵀ·G, rows in order,
				// from a non-zero gradient.
				g := awkwardMat(rng, rows, out)
				grad := awkwardMat(rng, in, out)
				wantG := grad.Clone()
				for p := 0; p < in; p++ {
					for o := 0; o < out; o++ {
						s := wantG.At(p, o)
						for r := 0; r < rows; r++ {
							s += x.At(r, p) * g.At(r, o)
						}
						wantG.Set(p, o, s)
					}
				}
				sameBits(t, "MatMulTNAcc", MatMulTNAcc(grad, x, g).Data, wantG.Data)
			}
		}
	}
}

// A shape the bounds do not cover must panic in Go, before any SIMD block
// runs.
func TestMulAddRowRejectsOutOfRange(t *testing.T) {
	for _, c := range []struct {
		name          string
		m, la, lb, li int
		as, bs, n     int
	}{
		{"a short", 32, 9, 320, 32, 1, 32, 10},
		{"b short", 32, 10, 319, 32, 1, 32, 10},
		{"init short", 32, 10, 320, 31, 1, 32, 10},
		{"negative stride", 32, 10, 320, 32, -1, 32, 10},
		{"negative n", 32, 10, 320, 32, 1, 32, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			mulAddRow(make([]float64, c.m), make([]float64, c.li), make([]float64, c.la), c.as,
				make([]float64, c.lb), c.bs, c.n)
		}()
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, shape := range [][2]int{{0, 3}, {3, 5}, {4, 1}, {7, 6}, {64, 101}} {
		a := randMat(rng, shape[0], shape[1])
		at := Transpose(nil, a)
		if at.Rows != a.Cols || at.Cols != a.Rows {
			t.Fatalf("Transpose %v shape %dx%d", shape, at.Rows, at.Cols)
		}
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < a.Cols; j++ {
				if at.At(j, i) != a.At(i, j) {
					t.Fatalf("Transpose %v [%d,%d] = %v, want %v", shape, j, i, at.At(j, i), a.At(i, j))
				}
			}
		}
	}
}

func BenchmarkMatMulTNAccGradAAd20(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	x, g := randMat(rng, 64, 101), randMat(rng, 64, 64)
	dst := NewMat(101, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTNAcc(dst, x, g)
	}
}

func BenchmarkMatMulAccForwardAAd20(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	x, wT := randMat(rng, 64, 101), randMat(rng, 101, 64)
	dst := NewMat(64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulAcc(dst, x, wT)
	}
}

// DotCols must give every column Dot's bits, on whole kernel blocks and on
// the generic tail alike, including the signed zeros and subnormals a
// reordered or fused sum would change.
func TestDotColsMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{1, 3, 4, 20} {
		for _, n := range simdOuts {
			cols := awkwardMat(rng, d, n) // column j is one point
			u := awkwardMat(rng, 1, d).Data
			want := make([]float64, n)
			point := make([]float64, d)
			for j := range want {
				for p := range point {
					point[p] = cols.At(p, j)
				}
				want[j] = Dot(u, point)
			}
			got := make([]float64, n)
			for i := range got {
				got[i] = math.NaN() // DotCols must overwrite, not accumulate
			}
			DotCols(got, u, cols.Data, n)
			sameBits(t, "DotCols", got, want)
		}
	}
}
