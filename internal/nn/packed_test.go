package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"isrl/internal/vec"
)

// The shapes the packed-path tests sweep: output widths around the SIMD
// block, the paper's layer-1 input widths with a few odd ones, and batch
// sizes from empty to five candidate groups of 64.
var (
	packOuts = []int{1, 7, 31, 32, 33, 64, 65, 101}
	packIns  = []int{1, 25, 29, 33, 61, 101}
	packRows = []int{0, 1, 2, 5, 64, 320}
)

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// Each packed pass must produce the unpacked pass's bits at every shape,
// whatever the size selection would pick: the forward with a zero and a
// non-zero bias, the grouped forward, and the weight gradient accumulated
// into a non-zero Grad.
func TestDensePackedPassesBitIdentical(t *testing.T) {
	t.Logf("SIMD kernel: %s", vec.SIMD())
	rng := rand.New(rand.NewSource(20))
	for _, out := range packOuts {
		for _, in := range packIns {
			for _, rows := range packRows {
				d := NewDense(in, out, rng)
				x := randBatch(rng, rows, in)
				for _, withBias := range []bool{false, true} {
					for o := range d.Bias.W {
						d.Bias.W[o] = 0
						if withBias {
							d.Bias.W[o] = rng.NormFloat64()
						}
					}
					want := vec.MatMulNT(nil, x, d.weightMat(), d.Bias.W)
					d.forwardPacked(x)
					sameBits(t, "forwardPacked", d.outB.Data, want.Data)
				}

				// Grouped: a state prefix of k inputs, rows spread over
				// three groups out of order.
				k := in / 2
				states := randBatch(rng, 3, k)
				rest := randBatch(rng, rows, in-k)
				group := make([]int, rows)
				for r := range group {
					group[r] = (r * 2) % 3
				}
				want := d.forwardGrouped(states, group, rest, false).Clone()
				sameBits(t, "forwardGrouped", d.forwardGrouped(states, group, rest, true).Data, want.Data)

				// Weight gradient from a non-zero accumulator.
				g := randBatch(rng, rows, out)
				start := randBatch(rng, out, in)
				wantG := start.Clone()
				vec.MatMulTNAcc(wantG, g, x)
				copy(d.Weight.Grad, start.Data)
				d.xb = x
				d.accumulatePacked(&vec.Mat{Rows: out, Cols: in, Data: d.Weight.Grad}, g)
				sameBits(t, "accumulatePacked", d.Weight.Grad, wantG.Data)
			}
		}
	}
}

// At the paper's AA d=20 shape a minibatch of 64 takes the packed path
// through the public batch passes, and the gradients (SELU's from the
// forward's kept exponentials) must equal serial per-row backprop.
func TestPackedTrainStepMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	batch := NewMLP([]int{101, 64, 1}, SELU, rng)
	if d := batch.Layers[0].(*Dense); simd && !d.packs(64*d.In) {
		t.Fatal("a 64-row batch at 101→64 does not take the packed path")
	}
	serial := batch.Clone()
	x := randBatch(rng, 64, 101)
	g := randBatch(rng, 64, 1)

	batch.ZeroGrad()
	out := batch.ForwardBatch(x).Clone()
	batch.BackwardBatch(g)

	serial.ZeroGrad()
	for r := 0; r < x.Rows; r++ {
		if q := serial.Forward1(x.Row(r)); q != out.At(r, 0) {
			t.Fatalf("row %d: ForwardBatch %v, Forward %v", r, out.At(r, 0), q)
		}
		serial.Backward(g.Row(r))
	}
	bp, sp := batch.Params(), serial.Params()
	for i := range bp {
		sameBits(t, "grad", bp[i].Grad, sp[i].Grad)
	}
}

// A target-network sync runs every few gradient steps; it must not allocate.
func TestCopyWeightsFromAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	main := NewMLP([]int{101, 64, 1}, SELU, rng)
	target := main.Clone()
	if n := testing.AllocsPerRun(10, func() { target.CopyWeightsFrom(main) }); n != 0 {
		t.Fatalf("CopyWeightsFrom allocates %v per call", n)
	}
}

func TestCopyWeightsFromRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, sizes := range [][]int{{4, 9, 1}, {4, 8, 2}, {4, 8, 1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v into {4,8,1}: no panic", sizes)
				}
			}()
			NewMLP([]int{4, 8, 1}, SELU, rng).CopyWeightsFrom(NewMLP(sizes, SELU, rng))
		}()
	}
}

// BenchmarkDenseForwardRows measures the packed forward against the unpacked
// one at small batches, where packMinRows sits: the paper's layer-1 shapes
// at EA d=4 (29 inputs) and AA d=20 (101), 64 hidden outputs.
func BenchmarkDenseForwardRows(b *testing.B) {
	for _, in := range []int{29, 101} {
		for _, rows := range []int{1, 2, 3, 4, 6, 8} {
			rng := rand.New(rand.NewSource(24))
			d := NewDense(in, 64, rng)
			x := randBatch(rng, rows, in)
			b.Run(fmt.Sprintf("unpacked/in%d/rows%d", in, rows), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					d.outB = vec.MatMulNT(d.outB, x, d.weightMat(), d.Bias.W)
				}
			})
			b.Run(fmt.Sprintf("packed/in%d/rows%d", in, rows), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					d.forwardPacked(x)
				}
			})
		}
	}
}

// BenchmarkScoreEAd4Of5 is the serving shape the break-even must leave
// unpacked: one EA d=4 state (21 inputs) against 5 candidate actions (8).
func BenchmarkScoreEAd4Of5(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	net := NewMLP([]int{29, 64, 1}, SELU, rng)
	d := net.Layers[0].(*Dense)
	states, rest := randBatch(rng, 1, 21), randBatch(rng, 5, 8)
	for _, packed := range []bool{false, true} {
		name := "unpacked"
		if packed {
			name = "packed"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d.forwardGrouped(states, nil, rest, packed)
			}
		})
	}
}
