// Package nn is a small feed-forward neural-network library built for the
// DQN agents of this repository. It provides dense layers, the activations
// used in the paper (SELU) plus common alternatives, MSE loss, SGD and Adam
// optimizers, and gob serialization — all on plain float64 slices with no
// external dependencies.
//
// Layers cache their last input, so a network instance is not safe for
// concurrent use. Network.View gives each goroutine its own forward scratch
// over shared, read-only weights, so views of one network can run forward
// passes concurrently; only a Clone owns its weights and can be trained.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"isrl/internal/vec"
)

// Param is a learnable tensor with its gradient accumulator.
type Param struct {
	W    []float64
	Grad []float64
}

// Layer is one stage of a feed-forward network.
type Layer interface {
	// Forward computes the layer output for x and caches what Backward
	// needs. The returned slice is owned by the layer until the next call.
	Forward(x []float64) []float64
	// Backward consumes dL/d(output) and returns dL/d(input), accumulating
	// parameter gradients.
	Backward(gradOut []float64) []float64
	// ForwardBatch is Forward over every row of x at once (see batch.go);
	// row i of the output is bit-identical to Forward(x.Row(i)).
	ForwardBatch(x *vec.Mat) *vec.Mat
	// BackwardBatch is Backward over a batch of gradient rows, accumulating
	// parameter gradients in row order.
	BackwardBatch(gradOut *vec.Mat) *vec.Mat
	// Params returns the learnable parameters, or nil.
	Params() []*Param
	// CloneLayer returns a deep copy.
	CloneLayer() Layer
}

// Dense is a fully connected layer: y = W·x + b, with W stored row-major
// (Out×In).
type Dense struct {
	In, Out int
	Weight  *Param // len In*Out
	Bias    *Param // len Out

	x   []float64 // cached input
	out []float64
	gin []float64

	xb         *vec.Mat // cached batch input
	outB, ginB *vec.Mat // batch scratch, grown on demand
	prefix     *vec.Mat // per-group prefix pre-activations (ForwardBatchGrouped)
}

// NewDense returns a Dense layer initialized with LeCun-normal weights
// (std = 1/√In), the initialization recommended for SELU networks.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		In: in, Out: out,
		Weight: &Param{W: make([]float64, in*out), Grad: make([]float64, in*out)},
		Bias:   &Param{W: make([]float64, out), Grad: make([]float64, out)},
		out:    make([]float64, out),
		gin:    make([]float64, in),
	}
	std := 1 / math.Sqrt(float64(in))
	for i := range d.Weight.W {
		d.Weight.W[i] = rng.NormFloat64() * std
	}
	return d
}

// Forward implements Layer.
func (d *Dense) Forward(x []float64) []float64 {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: Dense input %d, want %d", len(x), d.In))
	}
	d.x = x
	for o := 0; o < d.Out; o++ {
		row := d.Weight.W[o*d.In : (o+1)*d.In]
		s := d.Bias.W[o]
		for i, xi := range x {
			s += row[i] * xi
		}
		d.out[o] = s
	}
	return d.out
}

// Backward implements Layer.
func (d *Dense) Backward(gradOut []float64) []float64 {
	if len(gradOut) != d.Out {
		panic(fmt.Sprintf("nn: Dense gradOut %d, want %d", len(gradOut), d.Out))
	}
	for i := range d.gin {
		d.gin[i] = 0
	}
	for o := 0; o < d.Out; o++ {
		g := gradOut[o]
		if g == 0 {
			continue
		}
		d.Bias.Grad[o] += g
		row := d.Weight.W[o*d.In : (o+1)*d.In]
		grow := d.Weight.Grad[o*d.In : (o+1)*d.In]
		for i, xi := range d.x {
			grow[i] += g * xi
			d.gin[i] += g * row[i]
		}
	}
	return d.gin
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// CloneLayer implements Layer.
func (d *Dense) CloneLayer() Layer {
	c := &Dense{
		In: d.In, Out: d.Out,
		Weight: &Param{W: append([]float64(nil), d.Weight.W...), Grad: make([]float64, len(d.Weight.W))},
		Bias:   &Param{W: append([]float64(nil), d.Bias.W...), Grad: make([]float64, len(d.Bias.W))},
		out:    make([]float64, d.Out),
		gin:    make([]float64, d.In),
	}
	return c
}

// Activation names an element-wise nonlinearity.
type Activation int8

// Supported activations.
const (
	SELU Activation = iota // the paper's choice (Klambauer et al.)
	ReLU
	Tanh
)

// String names the activation.
func (a Activation) String() string {
	switch a {
	case SELU:
		return "selu"
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	}
	return fmt.Sprintf("Activation(%d)", int8(a))
}

// SELU constants from Klambauer et al., "Self-Normalizing Neural Networks".
const (
	seluAlpha  = 1.6732632423543772
	seluLambda = 1.0507009873554805
)

// Activate is an activation layer.
type Activate struct {
	Kind Activation

	x   []float64
	out []float64
	gin []float64

	xb         *vec.Mat
	outB, ginB *vec.Mat
}

// NewActivate returns an activation layer of the given kind.
func NewActivate(kind Activation) *Activate { return &Activate{Kind: kind} }

// Forward implements Layer.
func (a *Activate) Forward(x []float64) []float64 {
	if len(a.out) != len(x) {
		a.out = make([]float64, len(x))
		a.gin = make([]float64, len(x))
	}
	a.x = x
	switch a.Kind {
	case SELU:
		for i, xi := range x {
			if xi > 0 {
				a.out[i] = seluLambda * xi
			} else {
				a.out[i] = seluLambda * seluAlpha * (math.Exp(xi) - 1)
			}
		}
	case ReLU:
		for i, xi := range x {
			if xi > 0 {
				a.out[i] = xi
			} else {
				a.out[i] = 0
			}
		}
	case Tanh:
		for i, xi := range x {
			a.out[i] = math.Tanh(xi)
		}
	}
	return a.out
}

// Backward implements Layer.
func (a *Activate) Backward(gradOut []float64) []float64 {
	switch a.Kind {
	case SELU:
		for i, xi := range a.x {
			if xi > 0 {
				a.gin[i] = gradOut[i] * seluLambda
			} else {
				a.gin[i] = gradOut[i] * seluLambda * seluAlpha * math.Exp(xi)
			}
		}
	case ReLU:
		for i, xi := range a.x {
			if xi > 0 {
				a.gin[i] = gradOut[i]
			} else {
				a.gin[i] = 0
			}
		}
	case Tanh:
		for i := range a.x {
			t := a.out[i]
			a.gin[i] = gradOut[i] * (1 - t*t)
		}
	}
	return a.gin
}

// Params implements Layer.
func (a *Activate) Params() []*Param { return nil }

// CloneLayer implements Layer.
func (a *Activate) CloneLayer() Layer { return NewActivate(a.Kind) }
