package nn

import "math"

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update and leaves the gradients untouched; callers
	// ZeroGrad afterwards.
	Step(params []*Param)
}

// SGD is stochastic gradient descent with optional momentum — the plain
// "gradient descent step" the paper trains with (learning rate 0.003).
type SGD struct {
	LR       float64
	Momentum float64

	vel [][]float64
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum float64) *SGD { return &SGD{LR: lr, Momentum: momentum} }

// Step implements Optimizer.
func (s *SGD) Step(params []*Param) {
	if s.vel == nil && s.Momentum != 0 {
		s.vel = make([][]float64, len(params))
		for i, p := range params {
			s.vel[i] = make([]float64, len(p.W))
		}
	}
	for i, p := range params {
		if s.Momentum == 0 {
			for j := range p.W {
				p.W[j] -= s.LR * p.Grad[j]
			}
			continue
		}
		v := s.vel[i]
		for j := range p.W {
			v[j] = s.Momentum*v[j] + p.Grad[j]
			p.W[j] -= s.LR * v[j]
		}
	}
}

// Adam is the Adam optimizer (Kingma & Ba). It is offered alongside SGD for
// the ablation benches; the paper's reported settings use plain gradient
// descent.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	m, v [][]float64
	t    int
}

// NewAdam returns an Adam optimizer with the usual defaults for unset betas.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step implements Optimizer.
func (a *Adam) Step(params []*Param) {
	if a.m == nil {
		a.m = make([][]float64, len(params))
		a.v = make([][]float64, len(params))
		for i, p := range params {
			a.m[i] = make([]float64, len(p.W))
			a.v[i] = make([]float64, len(p.W))
		}
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range params {
		m, v := a.m[i], a.v[i]
		for j := range p.W {
			g := p.Grad[j]
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*g
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*g*g
			p.W[j] -= a.LR * (m[j] / c1) / (math.Sqrt(v[j]/c2) + a.Eps)
		}
	}
}

// MSE returns ½·mean squared error between pred and target plus the gradient
// dL/dpred (written into grad, which is allocated when nil or mis-sized).
func MSE(pred, target, grad []float64) (float64, []float64) {
	if len(pred) != len(target) {
		panic("nn: MSE length mismatch")
	}
	if len(grad) != len(pred) {
		grad = make([]float64, len(pred))
	}
	var loss float64
	inv := 1 / float64(len(pred))
	for i := range pred {
		d := pred[i] - target[i]
		loss += 0.5 * d * d * inv
		grad[i] = d * inv
	}
	return loss, grad
}

// Huber returns the mean Huber (smooth-L1) loss between pred and target
// with transition point delta, plus the gradient dL/dpred. It behaves like
// MSE near zero error and like L1 beyond delta, which keeps Q-learning
// stable when bootstrapped targets are occasionally far off — the standard
// DQN loss choice.
func Huber(pred, target, grad []float64, delta float64) (float64, []float64) {
	if len(pred) != len(target) {
		panic("nn: Huber length mismatch")
	}
	if delta <= 0 {
		delta = 1
	}
	if len(grad) != len(pred) {
		grad = make([]float64, len(pred))
	}
	var loss float64
	inv := 1 / float64(len(pred))
	for i := range pred {
		d := pred[i] - target[i]
		a := math.Abs(d)
		if a <= delta {
			loss += 0.5 * d * d * inv
			grad[i] = d * inv
		} else {
			loss += delta * (a - 0.5*delta) * inv
			if d > 0 {
				grad[i] = delta * inv
			} else {
				grad[i] = -delta * inv
			}
		}
	}
	return loss, grad
}

// ZeroGrads clears the gradient accumulators of params.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		clear(p.Grad)
	}
}

// ClipGrads scales all gradients down so their global L2 norm is at most
// maxNorm. Returns the pre-clip norm. A non-positive maxNorm is a no-op.
func ClipGrads(params []*Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if maxNorm <= 0 || norm <= maxNorm || norm == 0 {
		return norm
	}
	scale := maxNorm / norm
	for _, p := range params {
		for j := range p.Grad {
			p.Grad[j] *= scale
		}
	}
	return norm
}
