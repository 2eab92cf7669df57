package nn

import (
	"fmt"
	"math"

	"isrl/internal/vec"
)

// Batched forward/backward passes: a minibatch (or a candidate-action set)
// is one row-major matrix, and each layer processes all rows with one GEMM
// call instead of N single-vector passes. The vec kernels accumulate every
// output element in the same index order as the serial path, so row i of a
// batched result is bit-identical to Forward on row i alone — the property
// the DQN relies on to make batched scoring a pure optimization.
//
// Two rules keep a training step to a few large passes:
//   - Rows that share an input prefix (a state scored against its candidate
//     actions, or a whole minibatch of such groups) go through
//     ForwardBatchGrouped: the first layer sums each group's prefix once and
//     continues it per row over the suffix, which is the same addition
//     sequence as the unsplit sum.
//   - BackwardBatch never forms the first layer's input gradient, which
//     nothing reads; that layer accumulates only its weight and bias
//     gradients.
//
// Past a measured break-even (packMinRows), a Dense pass packs Wᵀ, or the
// weight gradient's transpose, so that the vec kernels' SIMD lanes run along
// the layer's outputs; each output's sum is the same either way.
//
// The SELU passes hand whole blocks of four to vec.SELU and vec.SELUGrad
// where those kernels run. vec.SELU exponentiates with math.Exp's own
// instruction sequence, lane for lane, and refuses a block with an input
// below −708 or NaN; the scalar loops below run such blocks, the tails and
// every host without the kernels, and are what the tests compare against.
//
// Like the single-vector path, batch passes cache activations on the layer,
// so a network remains single-goroutine. Concurrent scorers each take a
// View (shared weights, private scratch); only a Clone can be trained.

// weightMat views a Dense layer's row-major weight vector as an Out×In
// matrix without copying.
func (d *Dense) weightMat() *vec.Mat {
	return &vec.Mat{Rows: d.Out, Cols: d.In, Data: d.Weight.W}
}

// packMinRows is the break-even of the packed path: a pass takes it when it
// makes at least this many multiply-adds per weight, which for ForwardBatch
// and the weight gradient is the batch's row count. Below it, packing Wᵀ
// (In·Out copies) costs more than the SIMD kernel saves. Measured with
// BenchmarkDenseForwardRows on a 2.1 GHz AVX2 Xeon, Out = 64, fastest of six
// runs, unpacked vs packed: at In = 29, 1.11 vs 1.19 µs for 2 rows and 1.89
// vs 1.45 µs for 3; at In = 101, 4.2 vs 7.0 µs for 2 rows and 8.6 vs 7.8 µs
// for 3. Serving EA d=4 (one state against 5 candidates) makes 2.1 per
// weight, so it stays unpacked and its pooled scorers hold no packed copy.
const packMinRows = 3

// simd reports whether the vec kernels run whole output blocks on SIMD
// lanes; without it packing cannot pay, and every pass stays unpacked.
var simd = vec.SIMD() != "generic"

// packs reports whether a pass making work multiply-adds per output runs
// through packed Wᵀ: the layer has a whole SIMD block of outputs and the pass
// is past the break-even.
func (d *Dense) packs(work int) bool {
	return simd && d.Out >= vec.SIMDBlock && work >= packMinRows*d.In
}

// packWeights packs Wᵀ (In×Out) into the layer's transpose scratch, whose
// rows are contiguous along the outputs: the SIMD kernels' shape.
func (d *Dense) packWeights() *vec.Mat {
	d.wT = vec.Transpose(d.wT, d.weightMat())
	return d.wT
}

// ForwardBatch implements the batched Layer pass for Dense: Y = X·Wᵀ + b.
// Past the break-even it packs Wᵀ and computes each row as b + X·Wᵀ with
// MatMulAcc, whose 32-output blocks run on SIMD lanes; the sum per element
// is the same one either way.
func (d *Dense) ForwardBatch(x *vec.Mat) *vec.Mat {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense batch input width %d, want %d", x.Cols, d.In))
	}
	d.xb = x
	if d.packs(x.Rows * d.In) {
		d.forwardPacked(x)
	} else {
		d.outB = vec.MatMulNT(d.outB, x, d.weightMat(), d.Bias.W)
	}
	return d.outB
}

// forwardPacked is ForwardBatch's packed path.
func (d *Dense) forwardPacked(x *vec.Mat) {
	wT := d.packWeights()
	d.outB = vec.EnsureMat(d.outB, x.Rows, d.Out)
	for r := 0; r < x.Rows; r++ {
		copy(d.outB.Row(r), d.Bias.W)
	}
	vec.MatMulAcc(d.outB, x, wT)
}

// BackwardBatch implements the batched gradient pass for Dense, accumulating
// parameter gradients over the batch rows in row order and returning the
// input gradient G·W.
func (d *Dense) BackwardBatch(gradOut *vec.Mat) *vec.Mat {
	d.accumulateBatch(gradOut)
	d.ginB = vec.MatMul(d.ginB, gradOut, d.weightMat())
	return d.ginB
}

// accumulateBatch adds the batch's weight and bias gradients to d's
// accumulators, summing over the rows in row order.
func (d *Dense) accumulateBatch(gradOut *vec.Mat) {
	if gradOut.Cols != d.Out || gradOut.Rows != d.xb.Rows {
		panic(fmt.Sprintf("nn: Dense batch gradOut %dx%d, want %dx%d",
			gradOut.Rows, gradOut.Cols, d.xb.Rows, d.Out))
	}
	// Bias gradient: per-output sum over the batch, rows in order.
	for o := 0; o < d.Out; o++ {
		s := d.Bias.Grad[o]
		for r := 0; r < gradOut.Rows; r++ {
			s += gradOut.At(r, o)
		}
		d.Bias.Grad[o] = s
	}
	// Weight gradient: Gᵀ·X accumulated into the existing gradient.
	gw := &vec.Mat{Rows: d.Out, Cols: d.In, Data: d.Weight.Grad}
	if d.packs(gradOut.Rows * d.In) {
		d.accumulatePacked(gw, gradOut)
	} else {
		vec.MatMulTNAcc(gw, gradOut, d.xb)
	}
}

// accumulatePacked is the weight gradient's packed path: it transposes the
// current gradient into dWᵀ (In×Out), adds Xᵀ·G there, so the SIMD lanes run
// along the outputs however narrow the input is, and transposes the sums
// back. Every element still starts from its old gradient and adds the rows
// in order.
func (d *Dense) accumulatePacked(gw, gradOut *vec.Mat) {
	d.wT = vec.Transpose(d.wT, gw)
	vec.MatMulTNAcc(d.wT, d.xb, gradOut)
	vec.Transpose(gw, d.wT)
}

// partialDot sets dst[o] = init[o] + Σ_p W[o,lo+p]·x[p] for every output o,
// walking p in index order with four independent output accumulators in
// lock-step: the same addition sequence Forward performs over inputs
// lo … lo+len(x)−1, so a sum split at lo and continued is bit-identical to
// the unsplit one.
func (d *Dense) partialDot(dst, init, x []float64, lo int) {
	w, in, n := d.Weight.W, d.In, len(x)
	o := 0
	for ; o+4 <= d.Out; o += 4 {
		s0, s1, s2, s3 := init[o], init[o+1], init[o+2], init[o+3]
		// Re-slicing to len(x) lets the compiler drop the inner bounds checks.
		w0 := w[o*in+lo:][:n]
		w1 := w[(o+1)*in+lo:][:n]
		w2 := w[(o+2)*in+lo:][:n]
		w3 := w[(o+3)*in+lo:][:n]
		for p, xp := range x {
			s0 += w0[p] * xp
			s1 += w1[p] * xp
			s2 += w2[p] * xp
			s3 += w3[p] * xp
		}
		dst[o], dst[o+1], dst[o+2], dst[o+3] = s0, s1, s2, s3
	}
	for ; o < d.Out; o++ {
		s := init[o]
		wo := w[o*in+lo:][:n]
		for p, xp := range x {
			s += wo[p] * xp
		}
		dst[o] = s
	}
}

// ForwardBatch implements the batched Layer pass for Activate.
func (a *Activate) ForwardBatch(x *vec.Mat) *vec.Mat {
	a.xb = x
	a.outB = vec.EnsureMat(a.outB, x.Rows, x.Cols)
	out, in := a.outB.Data, x.Data
	switch a.Kind {
	case SELU:
		// BackwardBatch needs exp(x) of the non-positive inputs again; it
		// reads them from ginB, whose cells it overwrites one by one.
		a.ginB = vec.EnsureMat(a.ginB, x.Rows, x.Cols)
		seluForward(out, a.ginB.Data, in)
	case ReLU:
		for i, xi := range in {
			if xi > 0 {
				out[i] = xi
			} else {
				out[i] = 0
			}
		}
	case Tanh:
		for i, xi := range in {
			out[i] = math.Tanh(xi)
		}
	}
	return a.outB
}

// seluForward sets out = SELU(x) and ex[i] = exp(x[i]) wherever x[i] ≤ 0,
// for BackwardBatch. Whole blocks go to the vec kernel where it runs; the
// scalar loop takes the tail and every block the kernel's range gate refuses.
// Both give the same bits.
func seluForward(out, ex, x []float64) {
	i := 0
	if vec.SELUKernel() {
		for {
			i += vec.SELU(out[i:], ex[i:], x[i:], seluLambda, seluLambda*seluAlpha)
			if len(x)-i < vec.SELUBlock {
				break
			}
			j := i + vec.SELUBlock // the block the range gate refused
			seluForwardScalar(out[i:j], ex[i:j], x[i:j])
			i = j
		}
	}
	seluForwardScalar(out[i:], ex[i:], x[i:])
}

// seluForwardScalar is seluForward's portable loop.
func seluForwardScalar(out, ex, x []float64) {
	for i, xi := range x {
		if xi > 0 {
			out[i] = seluLambda * xi
		} else {
			e := math.Exp(xi)
			ex[i] = e
			out[i] = seluLambda * seluAlpha * (e - 1)
		}
	}
}

// seluBackward sets gin[i] = dSELU/dx · g[i], where gin[i] holds
// seluForward's exp(x[i]) when x[i] ≤ 0: the loop vec.SELUGrad runs without a
// branch.
func seluBackward(gin, g, x []float64) {
	for i, xi := range x {
		if xi > 0 {
			gin[i] = g[i] * seluLambda
		} else {
			gin[i] = g[i] * seluLambda * seluAlpha * gin[i]
		}
	}
}

// BackwardBatch implements the batched gradient pass for Activate.
func (a *Activate) BackwardBatch(gradOut *vec.Mat) *vec.Mat {
	if gradOut.Rows != a.xb.Rows || gradOut.Cols != a.xb.Cols {
		panic(fmt.Sprintf("nn: Activate batch gradOut %dx%d, want %dx%d",
			gradOut.Rows, gradOut.Cols, a.xb.Rows, a.xb.Cols))
	}
	a.ginB = vec.EnsureMat(a.ginB, gradOut.Rows, gradOut.Cols) // same shape: keeps SELU's exp(x)
	gin, g, in := a.ginB.Data, gradOut.Data, a.xb.Data
	switch a.Kind {
	case SELU:
		i := vec.SELUGrad(gin, g, in, seluLambda, seluAlpha)
		seluBackward(gin[i:], g[i:], in[i:])
	case ReLU:
		for i, xi := range in {
			if xi > 0 {
				gin[i] = g[i]
			} else {
				gin[i] = 0
			}
		}
	case Tanh:
		for i := range in {
			t := a.outB.Data[i]
			gin[i] = g[i] * (1 - t*t)
		}
	}
	return a.ginB
}

// ForwardBatch runs every row of x through the network in one set of GEMM
// calls and returns the batch output (owned by the last layer until the next
// batch call). Row i of the result is bit-identical to Forward(x.Row(i)).
func (n *Network) ForwardBatch(x *vec.Mat) *vec.Mat {
	for _, l := range n.Layers {
		x = l.ForwardBatch(x)
	}
	return x
}

// BackwardBatch back-propagates a batch of dL/d(output) rows, accumulating
// parameter gradients over the rows in row order. It must follow the
// matching ForwardBatch call. The first layer's input gradient, dL/d(input),
// has no reader, so it is never formed: a Dense first layer accumulates only
// its weight and bias gradients.
func (n *Network) BackwardBatch(grad *vec.Mat) {
	if len(n.Layers) == 0 {
		return
	}
	for i := len(n.Layers) - 1; i > 0; i-- {
		grad = n.Layers[i].BackwardBatch(grad)
	}
	if d, ok := n.Layers[0].(*Dense); ok {
		d.accumulateBatch(grad)
	}
}

// ForwardBatchShared scores a batch of inputs that all share the same
// leading len(shared) coordinates and differ only in the trailing rest.Cols
// coordinates — the DQN's candidate-scoring shape, where every row is
// state ⊕ actionᵢ. It is ForwardBatchGrouped with one group, so row i is
// bit-identical to Forward(shared ⊕ rest.Row(i)).
func (n *Network) ForwardBatchShared(shared []float64, rest *vec.Mat) *vec.Mat {
	return n.ForwardBatchGrouped(&vec.Mat{Rows: 1, Cols: len(shared), Data: shared}, nil, rest)
}

// ForwardBatchGrouped scores rows whose inputs share a prefix within each
// group — the DQN's minibatch shape, where row r is
// states.Row(group[r]) ⊕ rest.Row(r): one next state per transition, one row
// per candidate action. The first layer's pre-activation over the prefix is
// computed once per state row, starting from the bias, and every row then
// continues its group's sums over its own suffix. Because the dense
// accumulation walks inputs in index order, splitting the sum at the prefix
// boundary performs the exact same addition sequence, so row r is
// bit-identical to Forward(states.Row(group[r]) ⊕ rest.Row(r)). The layers
// after the first run once over all rows. A nil group puts every row in
// group 0, and a state row no row refers to is harmless. The first layer
// must be Dense with In == states.Cols+rest.Cols.
func (n *Network) ForwardBatchGrouped(states *vec.Mat, group []int, rest *vec.Mat) *vec.Mat {
	if len(n.Layers) == 0 {
		panic("nn: ForwardBatchGrouped on empty network")
	}
	d, ok := n.Layers[0].(*Dense)
	if !ok {
		panic(fmt.Sprintf("nn: ForwardBatchGrouped needs a Dense first layer, got %T", n.Layers[0]))
	}
	k := states.Cols
	if k+rest.Cols != d.In {
		panic(fmt.Sprintf("nn: ForwardBatchGrouped input %d+%d, want %d", k, rest.Cols, d.In))
	}
	if group != nil && len(group) != rest.Rows {
		panic(fmt.Sprintf("nn: ForwardBatchGrouped %d group indices for %d rows", len(group), rest.Rows))
	}
	out := d.forwardGrouped(states, group, rest, d.packs(states.Rows*k+rest.Rows*rest.Cols))
	for _, l := range n.Layers[1:] {
		out = l.ForwardBatch(out)
	}
	return out
}

// forwardGrouped is ForwardBatchGrouped's first layer, whose shapes the
// caller has checked:
//
//	prefix: h[g,o]   = b[o] + Σ_{i<k} W[o,i]·states[g,i]
//	suffix: out[r,o] = h[group[r],o] + Σ_p W[o,k+p]·rest[r,p]
//
// Unpacked, partialDot forms both sums row by row. Packed, both run as
// MatMulAcc over the two row ranges of Wᵀ, from rows filled with the bias
// and with each row's group prefix.
func (d *Dense) forwardGrouped(states *vec.Mat, group []int, rest *vec.Mat, packed bool) *vec.Mat {
	k := states.Cols
	d.prefix = vec.EnsureMat(d.prefix, states.Rows, d.Out)
	d.outB = vec.EnsureMat(d.outB, rest.Rows, d.Out)
	var wT *vec.Mat
	if packed {
		wT = d.packWeights()
		for g := 0; g < states.Rows; g++ {
			copy(d.prefix.Row(g), d.Bias.W)
		}
		vec.MatMulAcc(d.prefix, states, &vec.Mat{Rows: k, Cols: d.Out, Data: wT.Data[:k*d.Out]})
	} else {
		for g := 0; g < states.Rows; g++ {
			d.partialDot(d.prefix.Row(g), d.Bias.W, states.Row(g), 0)
		}
	}
	g := 0
	for r := 0; r < rest.Rows; r++ {
		if group != nil {
			g = group[r]
			if g < 0 || g >= states.Rows {
				panic(fmt.Sprintf("nn: ForwardBatchGrouped row %d in group %d of %d", r, g, states.Rows))
			}
		}
		if packed {
			copy(d.outB.Row(r), d.prefix.Row(g))
		} else {
			d.partialDot(d.outB.Row(r), d.prefix.Row(g), rest.Row(r), k)
		}
	}
	if packed {
		vec.MatMulAcc(d.outB, rest, &vec.Mat{Rows: rest.Cols, Cols: d.Out, Data: wT.Data[k*d.Out:]})
	}
	return d.outB
}
