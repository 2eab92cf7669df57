package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"isrl/internal/vec"
)

func TestDenseForwardKnown(t *testing.T) {
	d := NewDense(2, 2, rand.New(rand.NewSource(1)))
	copy(d.Weight.W, []float64{1, 2, 3, 4}) // rows: [1 2], [3 4]
	copy(d.Bias.W, []float64{0.5, -0.5})
	out := d.Forward([]float64{1, 1})
	if math.Abs(out[0]-3.5) > 1e-12 || math.Abs(out[1]-6.5) > 1e-12 {
		t.Errorf("out = %v", out)
	}
}

func TestDenseShapePanics(t *testing.T) {
	d := NewDense(2, 1, rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad input size")
		}
	}()
	d.Forward([]float64{1, 2, 3})
}

// Numerical gradient check for the whole network: dL/dW from backprop must
// match finite differences.
func TestGradCheck(t *testing.T) {
	for _, act := range []Activation{SELU, ReLU, Tanh} {
		rng := rand.New(rand.NewSource(7))
		net := NewMLP([]int{3, 5, 1}, act, rng)
		x := []float64{0.3, -0.7, 1.1}
		target := []float64{0.42}

		lossAt := func() float64 {
			out := net.Forward(x)
			l, _ := MSE(out, target, nil)
			return l
		}

		net.ZeroGrad()
		out := net.Forward(x)
		_, grad := MSE(out, target, nil)
		net.Backward(grad)

		const h = 1e-6
		for pi, p := range net.Params() {
			for j := range p.W {
				orig := p.W[j]
				p.W[j] = orig + h
				lp := lossAt()
				p.W[j] = orig - h
				lm := lossAt()
				p.W[j] = orig
				num := (lp - lm) / (2 * h)
				ana := p.Grad[j]
				// ReLU kinks can make individual entries disagree exactly at
				// zero; tolerance is loose but catches sign/scale bugs.
				if math.Abs(num-ana) > 1e-4*(1+math.Abs(num)) {
					t.Errorf("act=%v param %d[%d]: analytic %v vs numeric %v", act, pi, j, ana, num)
				}
			}
		}
	}
}

func TestSELUProperties(t *testing.T) {
	a := NewActivate(SELU)
	out := a.Forward([]float64{0})
	if out[0] != 0 {
		t.Errorf("SELU(0) = %v", out[0])
	}
	out = a.Forward([]float64{1})
	if math.Abs(out[0]-seluLambda) > 1e-12 {
		t.Errorf("SELU(1) = %v want λ", out[0])
	}
	out = a.Forward([]float64{-100})
	if math.Abs(out[0]-(-seluLambda*seluAlpha)) > 1e-6 {
		t.Errorf("SELU(-inf) → %v want −λα", out[0])
	}
}

// Training sanity: a small MLP must fit a linear function.
func TestFitLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewMLP([]int{2, 16, 1}, SELU, rng)
	opt := NewAdam(0.01)
	f := func(x []float64) float64 { return 0.3*x[0] - 0.7*x[1] + 0.1 }
	var finalLoss float64
	for epoch := 0; epoch < 600; epoch++ {
		net.ZeroGrad()
		var loss float64
		for b := 0; b < 16; b++ {
			x := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
			out := net.Forward(x)
			l, g := MSE(out, []float64{f(x)}, nil)
			loss += l
			net.Backward(g)
		}
		opt.Step(net.Params())
		finalLoss = loss / 16
	}
	if finalLoss > 1e-3 {
		t.Errorf("final loss %v, want < 1e-3", finalLoss)
	}
}

// SGD must also reduce loss (paper's optimizer).
func TestSGDReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := NewMLP([]int{1, 8, 1}, SELU, rng)
	opt := NewSGD(0.01, 0.9)
	sample := func() ([]float64, []float64) {
		x := rng.Float64()
		return []float64{x}, []float64{2 * x}
	}
	lossOnce := func() float64 {
		x, y := sample()
		l, _ := MSE(net.Forward(x), y, nil)
		return l
	}
	before := 0.0
	for i := 0; i < 50; i++ {
		before += lossOnce()
	}
	for epoch := 0; epoch < 400; epoch++ {
		net.ZeroGrad()
		x, y := sample()
		_, g := MSE(net.Forward(x), y, nil)
		net.Backward(g)
		opt.Step(net.Params())
	}
	after := 0.0
	for i := 0; i < 50; i++ {
		after += lossOnce()
	}
	if after >= before {
		t.Errorf("SGD did not reduce loss: before=%v after=%v", before, after)
	}
}

func TestCloneIndependentAndEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewMLP([]int{3, 4, 1}, SELU, rng)
	clone := net.Clone()
	x := []float64{0.1, 0.2, 0.3}
	if a, b := net.Forward1(x), clone.Forward1(x); a != b {
		t.Errorf("clone output %v != original %v", b, a)
	}
	clone.Params()[0].W[0] += 1
	if a, b := net.Forward1(x), clone.Forward1(x); a == b {
		t.Error("clone shares weight storage")
	}
}

func TestCopyWeightsFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	main := NewMLP([]int{2, 4, 1}, SELU, rng)
	target := NewMLP([]int{2, 4, 1}, SELU, rng)
	x := []float64{0.5, -0.5}
	if main.Forward1(x) == target.Forward1(x) {
		t.Fatal("distinct inits should differ")
	}
	target.CopyWeightsFrom(main)
	if a, b := main.Forward1(x), target.Forward1(x); a != b {
		t.Errorf("after sync: %v != %v", a, b)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := NewMLP([]int{4, 7, 3, 1}, SELU, rng)
	data, err := net.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Network
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, 0.9, -0.3, 0.4}
	if a, b := net.Forward1(x), back.Forward1(x); math.Abs(a-b) > 0 {
		t.Errorf("round trip changed output: %v vs %v", a, b)
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	var n Network
	if err := n.UnmarshalBinary([]byte("not gob")); err == nil {
		t.Error("garbage must fail to decode")
	}
}

// A view shares the source's weight storage, scores bit-identically on both
// the single and the batched path, keeps its own scratch, and clones into a
// trainable, independent network.
func TestViewSharesWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := NewMLP([]int{3, 5, 1}, SELU, rng)
	v1, v2 := net.View(), net.View()
	if &v1.Params()[0].W[0] != &net.Params()[0].W[0] {
		t.Fatal("view copied the weights")
	}
	x := []float64{0.3, -0.2, 0.7}
	want := net.Forward1(x)
	if a, b := v1.Forward1(x), v2.Forward1(x); a != want || b != want {
		t.Errorf("view outputs %v, %v, want %v", a, b, want)
	}
	rest := &vec.Mat{Rows: 2, Cols: 1, Data: []float64{0.7, -1}}
	got := v1.ForwardBatchShared(x[:2], rest)
	if got.At(0, 0) != want {
		t.Errorf("view shared-prefix row 0 = %v, want %v", got.At(0, 0), want)
	}
	if v2.ForwardBatchShared(x[:2], rest) == got {
		t.Error("views share batch scratch")
	}

	c := v1.Clone()
	c.ZeroGrad()
	c.Forward(x)
	c.Backward([]float64{1})
	NewSGD(0.1, 0).Step(c.Params())
	if c.Forward1(x) == want {
		t.Error("clone of a view did not train")
	}
	if net.Forward1(x) != want || v2.Forward1(x) != want {
		t.Error("training a clone of a view wrote the shared weights")
	}
}

func TestUnmarshalMalformed(t *testing.T) {
	cases := map[string]netBlob{
		"bias missing":     {Kinds: []string{"dense:2:1"}, Weights: [][]float64{{1, 2}}},
		"no weights":       {Kinds: []string{"dense:2:1"}},
		"negative dims":    {Kinds: []string{"dense:-1:-1"}, Weights: [][]float64{{1}, {}}},
		"overflowing dims": {Kinds: []string{"dense:4294967296:4294967296"}, Weights: [][]float64{{}, {}}},
		"wrong shape":      {Kinds: []string{"dense:2:1"}, Weights: [][]float64{{1, 2, 3}, {0}}},
		"unchained":        {Kinds: []string{"dense:2:1", "dense:3:1"}, Weights: [][]float64{{1, 2}, {0}, {1, 2, 3}, {0}}},
		"bad activation":   {Kinds: []string{"act:9"}},
		"unknown kind":     {Kinds: []string{"conv:3"}},
	}
	for name, blob := range cases {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(blob); err != nil {
			t.Fatal(err)
		}
		var n Network
		if err := n.UnmarshalBinary(buf.Bytes()); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestMSE(t *testing.T) {
	loss, grad := MSE([]float64{1, 2}, []float64{0, 4}, nil)
	// ½·((1)² + (−2)²)/2 = 1.25
	if math.Abs(loss-1.25) > 1e-12 {
		t.Errorf("loss = %v", loss)
	}
	if math.Abs(grad[0]-0.5) > 1e-12 || math.Abs(grad[1]-(-1)) > 1e-12 {
		t.Errorf("grad = %v", grad)
	}
}

func TestClipGrads(t *testing.T) {
	p := &Param{W: []float64{0}, Grad: []float64{3}}
	q := &Param{W: []float64{0}, Grad: []float64{4}}
	norm := ClipGrads([]*Param{p, q}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Errorf("pre-clip norm %v want 5", norm)
	}
	after := math.Hypot(p.Grad[0], q.Grad[0])
	if math.Abs(after-1) > 1e-12 {
		t.Errorf("post-clip norm %v want 1", after)
	}
	// No-op cases.
	p.Grad[0] = 0.1
	q.Grad[0] = 0
	if ClipGrads([]*Param{p, q}, 1); p.Grad[0] != 0.1 {
		t.Error("clip below threshold must not modify grads")
	}
}

func TestNewMLPValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for single-size MLP")
		}
	}()
	NewMLP([]int{3}, SELU, rand.New(rand.NewSource(1)))
}

func TestHuberLoss(t *testing.T) {
	// Inside delta: behaves like MSE.
	loss, grad := Huber([]float64{0.5}, []float64{0}, nil, 1)
	if math.Abs(loss-0.125) > 1e-12 || math.Abs(grad[0]-0.5) > 1e-12 {
		t.Errorf("quadratic region: loss=%v grad=%v", loss, grad[0])
	}
	// Outside delta: linear with clipped gradient.
	loss, grad = Huber([]float64{3}, []float64{0}, nil, 1)
	if math.Abs(loss-2.5) > 1e-12 || math.Abs(grad[0]-1) > 1e-12 {
		t.Errorf("linear region: loss=%v grad=%v", loss, grad[0])
	}
	// Negative side symmetric.
	_, grad = Huber([]float64{-3}, []float64{0}, nil, 1)
	if math.Abs(grad[0]+1) > 1e-12 {
		t.Errorf("negative linear grad=%v", grad[0])
	}
	// delta ≤ 0 defaults to 1.
	l2, _ := Huber([]float64{3}, []float64{0}, nil, 0)
	if math.Abs(l2-2.5) > 1e-12 {
		t.Errorf("default delta: loss=%v", l2)
	}
}

// Numerical gradient check for Huber through a full network.
func TestHuberGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	net := NewMLP([]int{2, 6, 1}, SELU, rng)
	x := []float64{0.4, -0.9}
	target := []float64{3.0} // far from init → linear Huber region exercised

	lossAt := func() float64 {
		l, _ := Huber(net.Forward(x), target, nil, 1)
		return l
	}
	net.ZeroGrad()
	_, grad := Huber(net.Forward(x), target, nil, 1)
	net.Backward(grad)
	const h = 1e-6
	for pi, p := range net.Params() {
		for j := range p.W {
			orig := p.W[j]
			p.W[j] = orig + h
			lp := lossAt()
			p.W[j] = orig - h
			lm := lossAt()
			p.W[j] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-p.Grad[j]) > 1e-4*(1+math.Abs(num)) {
				t.Errorf("param %d[%d]: analytic %v vs numeric %v", pi, j, p.Grad[j], num)
			}
		}
	}
}
