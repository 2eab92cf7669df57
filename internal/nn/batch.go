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
// parameter gradients over the batch rows in row order.
func (d *Dense) BackwardBatch(gradOut *vec.Mat) *vec.Mat {
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
	// Input gradient: G·W.
	d.ginB = vec.MatMul(d.ginB, gradOut, d.weightMat())
	return d.ginB
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
// matching ForwardBatch call.
func (n *Network) BackwardBatch(grad *vec.Mat) {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].BackwardBatch(grad)
	}
}

// ForwardBatchShared scores a batch of inputs that all share the same
// leading len(shared) coordinates and differ only in the trailing rest.Cols
// coordinates — the DQN's candidate-scoring shape, where every row is
// state ⊕ actionᵢ. The first layer's pre-activation is computed once for the
// shared prefix and continued per row over the suffix; because the dense
// accumulation walks inputs in index order, splitting the sum at the prefix
// boundary performs the exact same addition sequence, so row i remains
// bit-identical to Forward(shared ⊕ rest.Row(i)) while skipping the repeated
// prefix work. The first layer must be Dense with In == len(shared)+rest.Cols.
func (n *Network) ForwardBatchShared(shared []float64, rest *vec.Mat) *vec.Mat {
	if len(n.Layers) == 0 {
		panic("nn: ForwardBatchShared on empty network")
	}
	d, ok := n.Layers[0].(*Dense)
	if !ok {
		panic(fmt.Sprintf("nn: ForwardBatchShared needs a Dense first layer, got %T", n.Layers[0]))
	}
	k := len(shared)
	if k+rest.Cols != d.In {
		panic(fmt.Sprintf("nn: ForwardBatchShared input %d+%d, want %d", k, rest.Cols, d.In))
	}
	// Shared prefix pre-activation: h[o] = b[o] + Σ_{i<k} W[o,i]·shared[i].
	if len(d.sharedH) != d.Out {
		d.sharedH = make([]float64, d.Out)
	}
	for o := 0; o < d.Out; o++ {
		row := d.Weight.W[o*d.In : o*d.In+k]
		s := d.Bias.W[o]
		for i, xi := range shared {
			s += row[i] * xi
		}
		d.sharedH[o] = s
	}
	// Suffix continuation: out[r,o] = h[o] + Σ_p W[o,k+p]·rest[r,p], with
	// four independent output accumulators per row.
	d.outB = vec.EnsureMat(d.outB, rest.Rows, d.Out)
	sc := rest.Cols
	for r := 0; r < rest.Rows; r++ {
		x := rest.Row(r)
		drow := d.outB.Row(r)
		o := 0
		for ; o+4 <= d.Out; o += 4 {
			s0, s1, s2, s3 := d.sharedH[o], d.sharedH[o+1], d.sharedH[o+2], d.sharedH[o+3]
			w0 := d.Weight.W[o*d.In+k : o*d.In+k+sc]
			w1 := d.Weight.W[(o+1)*d.In+k : (o+1)*d.In+k+sc]
			w2 := d.Weight.W[(o+2)*d.In+k : (o+2)*d.In+k+sc]
			w3 := d.Weight.W[(o+3)*d.In+k : (o+3)*d.In+k+sc]
			for p, xp := range x {
				s0 += w0[p] * xp
				s1 += w1[p] * xp
				s2 += w2[p] * xp
				s3 += w3[p] * xp
			}
			drow[o], drow[o+1], drow[o+2], drow[o+3] = s0, s1, s2, s3
		}
		for ; o < d.Out; o++ {
			s := d.sharedH[o]
			w := d.Weight.W[o*d.In+k : o*d.In+k+sc]
			for p, xp := range x {
				s += w[p] * xp
			}
			drow[o] = s
		}
	}
	out := d.outB
	for _, l := range n.Layers[1:] {
		out = l.ForwardBatch(out)
	}
	return out
}
