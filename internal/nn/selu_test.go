package nn

import (
	"math"
	"math/rand"
	"testing"

	"isrl/internal/vec"
)

// seluEdgeInputs are the pre-activations where the batched SELU's kernel and
// its scalar fallback meet: the kernel's range gate at −708, math.Exp's
// denormal and underflow inputs, the not-finite values, signed zeros and
// subnormals.
var seluEdgeInputs = []float64{
	0, math.Copysign(0, -1), -708, math.Nextafter(-708, 0), math.Nextafter(-708, math.Inf(-1)),
	-708.4, -745.2, -746, math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -5e-324, -2.5e-310, -1e-300,
}

// The batched SELU passes (whole blocks on the vec kernel where it runs, the
// scalar loops for tails and gated blocks) give the bits of the single-vector
// Forward and Backward, which call math.Exp per element, row by row: at
// widths that are and are not multiples of the kernel's block, with the edge
// inputs salted in.
func TestSELUBatchBitIdentical(t *testing.T) {
	t.Logf("SIMD kernels: %s", vec.SIMD())
	rng := rand.New(rand.NewSource(30))
	for _, shape := range [][2]int{{1, 1}, {1, 3}, {2, 5}, {3, 7}, {4, 9}, {5, 64}, {64, 29}, {320, 64}} {
		rows, cols := shape[0], shape[1]
		x := randBatch(rng, rows, cols)
		for i := range x.Data {
			x.Data[i] *= 3
			if rng.Intn(8) == 0 {
				x.Data[i] = seluEdgeInputs[rng.Intn(len(seluEdgeInputs))]
			}
		}
		g := randBatch(rng, rows, cols)

		batch := NewActivate(SELU)
		out := batch.ForwardBatch(x).Clone()
		gin := batch.BackwardBatch(g).Clone()

		serial := NewActivate(SELU)
		for r := 0; r < rows; r++ {
			sameRowBits(t, "ForwardBatch", r, out.Row(r), serial.Forward(x.Row(r)), x.Row(r))
			sameRowBits(t, "BackwardBatch", r, gin.Row(r), serial.Backward(g.Row(r)), x.Row(r))
		}
	}
}

func sameRowBits(t *testing.T, what string, r int, got, want, x []float64) {
	t.Helper()
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s row %d col %d (x = %v): %#x, serial %#x", what, r, j, x[j],
				math.Float64bits(got[j]), math.Float64bits(want[j]))
		}
	}
}
