package nn

import (
	"math/rand"
	"testing"

	"isrl/internal/vec"
)

// The paper's network shape: (state ⊕ action) → 64 SELU → 1.
func paperNet(in int) *Network {
	return NewMLP([]int{in, 64, 1}, SELU, rand.New(rand.NewSource(1)))
}

func BenchmarkForwardPaperShape(b *testing.B) {
	net := paperNet(29) // EA at d=4: state 21 ⊕ action 8
	x := make([]float64, 29)
	for i := range x {
		x[i] = 0.1 * float64(i%7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward1(x)
	}
}

func BenchmarkTrainStepPaperShape(b *testing.B) {
	net := paperNet(29)
	opt := NewSGD(0.003, 0)
	x := make([]float64, 29)
	for i := range x {
		x[i] = 0.05 * float64(i%11)
	}
	target := []float64{1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrad()
		_, grad := MSE(net.Forward(x), target, nil)
		net.Backward(grad)
		opt.Step(net.Params())
	}
}

func BenchmarkAdamStep(b *testing.B) {
	net := paperNet(61) // AA at d=20
	opt := NewAdam(0.001)
	x := make([]float64, 61)
	target := []float64{0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrad()
		_, grad := Huber(net.Forward(x), target, nil, 1)
		net.Backward(grad)
		opt.Step(net.Params())
	}
}

// seluBenchInput is a hidden layer's pre-activations for one AA d=20 training
// step: 64 outputs for 64 transitions × 5 next actions, about half of them
// negative.
func seluBenchInput() *vec.Mat {
	rng := rand.New(rand.NewSource(30))
	x := vec.NewMat(320, 64)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

// BenchmarkSELUForward compares the scalar SELU loop with the batched pass,
// which runs whole blocks on the vec kernel where this host has it.
func BenchmarkSELUForward(b *testing.B) {
	x := seluBenchInput()
	out, ex := vec.NewMat(320, 64), vec.NewMat(320, 64)
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seluForwardScalar(out.Data, ex.Data, x.Data)
		}
	})
	b.Run("batch", func(b *testing.B) {
		a := NewActivate(SELU)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a.ForwardBatch(x)
		}
	})
}

// BenchmarkSELUBackward compares the branchy scalar SELU gradient with the
// batched pass, which blends both sides on the vec kernel where it runs. Both
// multiply the forward's exponentials in place, so each iteration restores
// them first; otherwise repeated passes drift into subnormals.
func BenchmarkSELUBackward(b *testing.B) {
	x := seluBenchInput()
	g := seluBenchInput()
	a := NewActivate(SELU)
	a.ForwardBatch(x)
	ex := append([]float64(nil), a.ginB.Data...)
	b.Run("scalar", func(b *testing.B) {
		gin := vec.NewMat(320, 64)
		for i := 0; i < b.N; i++ {
			copy(gin.Data, ex)
			seluBackward(gin.Data, g.Data, x.Data)
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(a.ginB.Data, ex)
			a.BackwardBatch(g)
		}
	})
}
