package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
)

// Network is a feed-forward stack of layers.
type Network struct {
	Layers []Layer
}

// NewMLP builds a multi-layer perceptron with the given layer sizes,
// applying the activation after every layer except the last (linear head —
// the standard shape for a Q-value regressor). sizes must have ≥ 2 entries.
func NewMLP(sizes []int, act Activation, rng *rand.Rand) *Network {
	if len(sizes) < 2 {
		panic(fmt.Sprintf("nn: NewMLP needs ≥2 sizes, got %v", sizes))
	}
	n := &Network{}
	for i := 0; i+1 < len(sizes); i++ {
		n.Layers = append(n.Layers, NewDense(sizes[i], sizes[i+1], rng))
		if i+2 < len(sizes) {
			n.Layers = append(n.Layers, NewActivate(act))
		}
	}
	return n
}

// Forward runs x through the network and returns the output (owned by the
// last layer until the next call).
func (n *Network) Forward(x []float64) []float64 {
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// Forward1 runs x through a scalar-output network and returns the value.
func (n *Network) Forward1(x []float64) float64 {
	out := n.Forward(x)
	if len(out) != 1 {
		panic(fmt.Sprintf("nn: Forward1 on network with output size %d", len(out)))
	}
	return out[0]
}

// Backward back-propagates dL/d(output) through the network, accumulating
// parameter gradients. It must follow the matching Forward call.
func (n *Network) Backward(grad []float64) {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
}

// Params returns all learnable parameters in a stable order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrad clears all gradient accumulators.
func (n *Network) ZeroGrad() { ZeroGrads(n.Params()) }

// Clone returns an independent deep copy — the way a DQN target network is
// born.
func (n *Network) Clone() *Network {
	c := &Network{Layers: make([]Layer, len(n.Layers))}
	for i, l := range n.Layers {
		c.Layers[i] = l.CloneLayer()
	}
	return c
}

// View returns a network that reads n's weight tensors in place and owns
// only its forward scratch. Views of one network can run forward passes on
// separate goroutines concurrently, as long as nothing writes n's weights;
// a view has no gradient buffers, so it cannot be trained — Clone it first.
// A view keeps its scratch between passes, sized to the largest batch it
// has run, so many mostly idle scorers should share a few pooled views
// rather than hold one each.
func (n *Network) View() *Network {
	v := &Network{Layers: make([]Layer, len(n.Layers))}
	for i, l := range n.Layers {
		if d, ok := l.(*Dense); ok {
			v.Layers[i] = &Dense{
				In: d.In, Out: d.Out,
				Weight: &Param{W: d.Weight.W},
				Bias:   &Param{W: d.Bias.W},
				out:    make([]float64, d.Out),
			}
			continue
		}
		v.Layers[i] = l.CloneLayer() // parameter-free: a fresh copy is a view
	}
	return v
}

// CopyWeightsFrom overwrites this network's parameters with src's — the
// periodic target-network synchronization of DQN. The architectures must
// match. It walks the two layer lists pairwise and allocates nothing.
func (n *Network) CopyWeightsFrom(src *Network) {
	if len(n.Layers) != len(src.Layers) {
		panic(fmt.Sprintf("nn: CopyWeightsFrom mismatched layer counts %d vs %d", len(n.Layers), len(src.Layers)))
	}
	for i, l := range n.Layers {
		d, ok := l.(*Dense)
		if !ok {
			copyParams(i, l.Params(), src.Layers[i].Params())
			continue
		}
		s, ok := src.Layers[i].(*Dense)
		if !ok || s.In != d.In || s.Out != d.Out {
			panic(fmt.Sprintf("nn: CopyWeightsFrom layer %d: %T does not match dense %dx%d", i, src.Layers[i], d.In, d.Out))
		}
		copy(d.Weight.W, s.Weight.W)
		copy(d.Bias.W, s.Bias.W)
	}
}

// copyParams copies src's parameter values into dst's, for layer i.
func copyParams(i int, dst, src []*Param) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("nn: CopyWeightsFrom layer %d param counts %d vs %d", i, len(dst), len(src)))
	}
	for j := range dst {
		if len(dst[j].W) != len(src[j].W) {
			panic(fmt.Sprintf("nn: CopyWeightsFrom layer %d param %d size %d vs %d", i, j, len(dst[j].W), len(src[j].W)))
		}
		copy(dst[j].W, src[j].W)
	}
}

// netBlob is the gob wire format: the architecture plus flat weights.
type netBlob struct {
	Kinds   []string // "dense:in:out" or "act:kind"
	Weights [][]float64
}

// MarshalBinary serializes the network (architecture and weights).
func (n *Network) MarshalBinary() ([]byte, error) {
	blob := netBlob{}
	for _, l := range n.Layers {
		switch t := l.(type) {
		case *Dense:
			blob.Kinds = append(blob.Kinds, fmt.Sprintf("dense:%d:%d", t.In, t.Out))
			blob.Weights = append(blob.Weights, append([]float64(nil), t.Weight.W...))
			blob.Weights = append(blob.Weights, append([]float64(nil), t.Bias.W...))
		case *Activate:
			blob.Kinds = append(blob.Kinds, fmt.Sprintf("act:%d", int(t.Kind)))
		default:
			return nil, fmt.Errorf("nn: cannot serialize layer %T", l)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(blob); err != nil {
		return nil, fmt.Errorf("nn: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores a network serialized by MarshalBinary. It
// rejects, rather than panics on, any blob that could not run a forward
// pass: unknown layer kinds, non-positive or mismatched dense shapes, dense
// layers that do not chain, and missing weight arrays.
func (n *Network) UnmarshalBinary(data []byte) error {
	var blob netBlob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&blob); err != nil {
		return fmt.Errorf("nn: decode: %w", err)
	}
	var layers []Layer
	wi, width := 0, -1 // width: output size of the last dense layer so far
	for _, k := range blob.Kinds {
		var a, b int
		if _, err := fmt.Sscanf(k, "dense:%d:%d", &a, &b); err == nil {
			if wi+1 >= len(blob.Weights) {
				return fmt.Errorf("nn: truncated weights")
			}
			w, bias := blob.Weights[wi], blob.Weights[wi+1]
			// Checking b against the bias first bounds a*b, so the product
			// cannot overflow into a false match.
			if a <= 0 || b <= 0 || len(bias) != b || a > len(w) || a*b != len(w) {
				return fmt.Errorf("nn: weight shape mismatch for %q", k)
			}
			if width >= 0 && a != width {
				return fmt.Errorf("nn: layer %q does not chain from width %d", k, width)
			}
			layers = append(layers, &Dense{
				In: a, Out: b,
				Weight: &Param{W: w, Grad: make([]float64, a*b)},
				Bias:   &Param{W: bias, Grad: make([]float64, b)},
				out:    make([]float64, b),
				gin:    make([]float64, a),
			})
			wi += 2
			width = b
			continue
		}
		if _, err := fmt.Sscanf(k, "act:%d", &a); err == nil {
			if a < int(SELU) || a > int(Tanh) {
				return fmt.Errorf("nn: unknown activation in %q", k)
			}
			layers = append(layers, NewActivate(Activation(a)))
			continue
		}
		return fmt.Errorf("nn: unknown layer kind %q", k)
	}
	n.Layers = layers
	return nil
}
