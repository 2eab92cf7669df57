package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
	}{
		{nil, nil, 0},
		{[]float64{1}, []float64{2}, 2},
		{[]float64{1, 2, 3}, []float64{4, 5, 6}, 32},
		{[]float64{-1, 0.5}, []float64{2, 4}, 0},
	}
	for _, c := range cases {
		if got := Dot(c.a, c.b); got != c.want {
			t.Errorf("Dot(%v,%v)=%v want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorms(t *testing.T) {
	a := []float64{3, -4}
	if got := Norm(a); got != 5 {
		t.Errorf("Norm=%v want 5", got)
	}
	if got := Dist([]float64{1, 1}, []float64{4, 5}); got != 5 {
		t.Errorf("Dist=%v want 5", got)
	}
}

func TestElementwiseOps(t *testing.T) {
	a, b := []float64{1, 2, 3}, []float64{4, 5, 6}
	if got := Sub(nil, b, a); !Equal(got, []float64{3, 3, 3}, 0) {
		t.Errorf("Sub=%v", got)
	}
	if got := Add(nil, a, b); !Equal(got, []float64{5, 7, 9}, 0) {
		t.Errorf("Add=%v", got)
	}
	if got := Scale(nil, 2, a); !Equal(got, []float64{2, 4, 6}, 0) {
		t.Errorf("Scale=%v", got)
	}
	if got := AddScaled(nil, a, 2, b); !Equal(got, []float64{9, 12, 15}, 0) {
		t.Errorf("AddScaled=%v", got)
	}
	if got := Mid(nil, a, b); !Equal(got, []float64{2.5, 3.5, 4.5}, 0) {
		t.Errorf("Mid=%v", got)
	}
}

func TestSubReusesDst(t *testing.T) {
	dst := make([]float64, 2)
	out := Sub(dst, []float64{3, 4}, []float64{1, 1})
	if &out[0] != &dst[0] {
		t.Error("Sub should reuse a correctly sized dst")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := []float64{1, 2}
	c := Clone(a)
	c[0] = 99
	if a[0] != 1 {
		t.Error("Clone must not share storage")
	}
}

func TestMinMaxSum(t *testing.T) {
	a := []float64{2, -1, 5, 5, 0}
	if Min(a) != -1 || Max(a) != 5 {
		t.Errorf("Min/Max wrong: %v %v", Min(a), Max(a))
	}
	if Sum(a) != 11 {
		t.Errorf("Sum=%v want 11", Sum(a))
	}
}

func TestNormalize(t *testing.T) {
	a := []float64{3, 4}
	n := Normalize(a)
	if n != 5 {
		t.Errorf("Normalize returned %v want 5", n)
	}
	if math.Abs(Norm(a)-1) > 1e-15 {
		t.Errorf("normalized norm %v", Norm(a))
	}
	z := []float64{0, 0}
	if Normalize(z) != 0 || z[0] != 0 {
		t.Error("Normalize(0) must be a no-op returning 0")
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{1, 2}) {
		t.Error("finite slice reported non-finite")
	}
	if AllFinite([]float64{1, math.NaN()}) || AllFinite([]float64{math.Inf(1)}) {
		t.Error("NaN/Inf not detected")
	}
}

// squash maps arbitrary float64s into [-1e6, 1e6] so properties are tested
// away from the overflow region of float64 arithmetic.
func squash(a []float64) []float64 {
	out := make([]float64, len(a))
	for i, v := range a {
		if math.IsNaN(v) {
			v = 0
		}
		out[i] = math.Tanh(v) * 1e6
	}
	return out
}

// Property: Cauchy–Schwarz, |a·b| ≤ ‖a‖‖b‖.
func TestDotCauchySchwarz(t *testing.T) {
	f := func(a, b [6]float64) bool {
		av, bv := squash(a[:]), squash(b[:])
		return math.Abs(Dot(av, bv)) <= Norm(av)*Norm(bv)+1e-6*(1+Norm(av)*Norm(bv))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: triangle inequality for Dist.
func TestDistTriangle(t *testing.T) {
	f := func(a, b, c [5]float64) bool {
		av, bv, cv := squash(a[:]), squash(b[:]), squash(c[:])
		return Dist(av, cv) <= Dist(av, bv)+Dist(bv, cv)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Sub then Add round-trips (inputs squashed to avoid overflow at
// the extremes of the float64 range, where x-y is not representable).
func TestSubAddRoundTrip(t *testing.T) {
	f := func(a, b [4]float64) bool {
		av, bv := squash(a[:]), squash(b[:])
		d := Sub(nil, av, bv)
		back := Add(nil, d, bv)
		return Equal(back, av, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSolveLinearKnown(t *testing.T) {
	A := NewMat(2, 2)
	A.Set(0, 0, 2)
	A.Set(0, 1, 1)
	A.Set(1, 0, 1)
	A.Set(1, 1, 3)
	x, ok := SolveLinear(A, []float64{5, 10}, 0)
	if !ok {
		t.Fatal("solve failed")
	}
	if !Equal(x, []float64{1, 3}, 1e-12) {
		t.Errorf("x=%v want [1 3]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	A := NewMat(2, 2)
	A.Set(0, 0, 1)
	A.Set(0, 1, 2)
	A.Set(1, 0, 2)
	A.Set(1, 1, 4)
	if _, ok := SolveLinear(A, []float64{1, 2}, 0); ok {
		t.Error("singular system must be rejected")
	}
}

// Property: for random well-conditioned systems, A·x = b holds after solving.
func TestSolveLinearResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		A := NewMat(n, n)
		for i := range A.Data {
			A.Data[i] = rng.NormFloat64()
		}
		// Diagonal dominance keeps the system well-conditioned.
		for i := 0; i < n; i++ {
			A.Set(i, i, A.At(i, i)+float64(n)+1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, ok := SolveLinear(A, b, 0)
		if !ok {
			t.Fatalf("trial %d: unexpected singular", trial)
		}
		r := make([]float64, n)
		for i := range r {
			r[i] = Dot(A.Row(i), x)
		}
		if !Equal(r, b, 1e-8) {
			t.Fatalf("trial %d: residual too large: %v vs %v", trial, r, b)
		}
	}
}

func TestMatCloneIndependence(t *testing.T) {
	A := NewMat(1, 2)
	A.Set(0, 0, 1)
	B := A.Clone()
	B.Set(0, 0, 9)
	if A.At(0, 0) != 1 {
		t.Error("Clone must not share storage")
	}
}
