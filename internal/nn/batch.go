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
// Like the single-vector path, batch passes cache activations on the layer,
// so a network remains single-goroutine. Concurrent scorers each take a
// View (shared weights, private scratch); only a Clone can be trained.

// weightMat views a Dense layer's row-major weight vector as an Out×In
// matrix without copying.
func (d *Dense) weightMat() *vec.Mat {
	return &vec.Mat{Rows: d.Out, Cols: d.In, Data: d.Weight.W}
}

// ForwardBatch implements the batched Layer pass for Dense: Y = X·Wᵀ + b.
func (d *Dense) ForwardBatch(x *vec.Mat) *vec.Mat {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense batch input width %d, want %d", x.Cols, d.In))
	}
	d.xb = x
	d.outB = vec.MatMulNT(d.outB, x, d.weightMat(), d.Bias.W)
	return d.outB
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
	vec.MatMulTNAcc(gw, gradOut, d.xb)
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
		for i, xi := range in {
			if xi > 0 {
				out[i] = seluLambda * xi
			} else {
				out[i] = seluLambda * seluAlpha * (math.Exp(xi) - 1)
			}
		}
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

// BackwardBatch implements the batched gradient pass for Activate.
func (a *Activate) BackwardBatch(gradOut *vec.Mat) *vec.Mat {
	a.ginB = vec.EnsureMat(a.ginB, gradOut.Rows, gradOut.Cols)
	gin, g, in := a.ginB.Data, gradOut.Data, a.xb.Data
	switch a.Kind {
	case SELU:
		for i, xi := range in {
			if xi > 0 {
				gin[i] = g[i] * seluLambda
			} else {
				gin[i] = g[i] * seluLambda * seluAlpha * math.Exp(xi)
			}
		}
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
	// Prefix pre-activation per group: h[g,o] = b[o] + Σ_{i<k} W[o,i]·states[g,i].
	d.prefix = vec.EnsureMat(d.prefix, states.Rows, d.Out)
	for g := 0; g < states.Rows; g++ {
		d.partialDot(d.prefix.Row(g), d.Bias.W, states.Row(g), 0)
	}
	// Suffix continuation: out[r,o] = h[group[r],o] + Σ_p W[o,k+p]·rest[r,p].
	d.outB = vec.EnsureMat(d.outB, rest.Rows, d.Out)
	g := 0
	for r := 0; r < rest.Rows; r++ {
		if group != nil {
			g = group[r]
			if g < 0 || g >= states.Rows {
				panic(fmt.Sprintf("nn: ForwardBatchGrouped row %d in group %d of %d", r, g, states.Rows))
			}
		}
		d.partialDot(d.outB.Row(r), d.prefix.Row(g), rest.Row(r), k)
	}
	out := d.outB
	for _, l := range n.Layers[1:] {
		out = l.ForwardBatch(out)
	}
	return out
}
