package vec

import (
	"math/rand"
	"testing"
)

func randMat(rng *rand.Rand, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// MatMul must agree bit-for-bit with row-by-row Dot accumulation,
// since the batched NN path relies on exact equivalence with serial forwards.
func TestMatMulBitIdenticalToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range [][3]int{{1, 1, 1}, {3, 5, 7}, {8, 64, 1}, {13, 29, 64}, {5, 3, 4}} {
		n, k, m := shape[0], shape[1], shape[2]
		a, b := randMat(rng, n, k), randMat(rng, k, m)
		got := MatMul(nil, a, b)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				var s float64
				for p := 0; p < k; p++ {
					s += a.At(i, p) * b.At(p, j)
				}
				if got.At(i, j) != s {
					t.Fatalf("shape %v: MatMul[%d,%d] = %v, serial %v", shape, i, j, got.At(i, j), s)
				}
			}
		}
	}
}

func TestMatMulNTBitIdenticalToDenseForward(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, shape := range [][3]int{{1, 4, 3}, {7, 29, 64}, {64, 64, 1}, {3, 5, 6}} {
		n, k, m := shape[0], shape[1], shape[2]
		x, w := randMat(rng, n, k), randMat(rng, m, k)
		bias := make([]float64, m)
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}
		got := MatMulNT(nil, x, w, bias)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				s := bias[j]
				row := w.Row(j)
				for p, xp := range x.Row(i) {
					s += xp * row[p]
				}
				if got.At(i, j) != s {
					t.Fatalf("shape %v: MatMulNT[%d,%d] = %v, serial %v", shape, i, j, got.At(i, j), s)
				}
			}
		}
	}
}

func TestMatMulTNAccBitIdenticalToPerSampleAccumulation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, m, k := 9, 6, 11
	g, x := randMat(rng, n, m), randMat(rng, n, k)
	dst := randMat(rng, m, k) // pre-existing gradient contents
	want := dst.Clone()
	for p := 0; p < n; p++ { // serial: one sample at a time, in order
		for o := 0; o < m; o++ {
			gv := g.At(p, o)
			row := want.Row(o)
			for j, xv := range x.Row(p) {
				row[j] += gv * xv
			}
		}
	}
	MatMulTNAcc(dst, g, x)
	for i := range dst.Data {
		if dst.Data[i] != want.Data[i] {
			t.Fatalf("MatMulTNAcc data[%d] = %v, serial %v", i, dst.Data[i], want.Data[i])
		}
	}
}

func TestMatMulAcc(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := randMat(rng, 4, 5), randMat(rng, 5, 3)
	base := MatMul(nil, a, b)
	dst := NewMat(4, 3) // zeros
	MatMulAcc(dst, a, b)
	for i := range dst.Data {
		if dst.Data[i] != base.Data[i] {
			t.Fatalf("MatMulAcc from zero differs at %d: %v vs %v", i, dst.Data[i], base.Data[i])
		}
	}
}

func TestEnsureMatReuse(t *testing.T) {
	m := NewMat(4, 8)
	data := &m.Data[0]
	m = EnsureMat(m, 2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("EnsureMat shape = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	if &m.Data[0] != data {
		t.Fatal("EnsureMat reallocated despite sufficient capacity")
	}
	if got := EnsureMat(nil, 3, 3); got == nil || len(got.Data) != 9 {
		t.Fatal("EnsureMat(nil) did not allocate")
	}
}

func BenchmarkMatMulNT(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x, w := randMat(rng, 64, 29), randMat(rng, 64, 29)
	bias := make([]float64, 64)
	dst := NewMat(64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulNT(dst, x, w, bias)
	}
}
