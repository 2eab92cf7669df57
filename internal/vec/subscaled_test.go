package vec

import (
	"math"
	"math/rand"
	"testing"
)

// SubScaled must give the scalar row update's bits on every length around
// the kernel's 4- and 16-wide steps, at unaligned offsets, for multipliers
// and operands where a fused or reordered update would show: signed zeros,
// subnormals, infinities (whose products with zero are NaN), and NaN in f
// and, with its own payload, in both vectors: the kernel takes its operands
// in the scalar loop's order, so even the propagated payload agrees.
func TestSubScaledMatchesScalar(t *testing.T) {
	t.Logf("SIMD kernel: %s", SIMD())
	rng := rand.New(rand.NewSource(13))
	fs := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		1, -1, 0.1, -3.7e5, 5e-324, 1e300,
	}
	special := []float64{
		0, math.Copysign(0, -1), 5e-324, -2.5e-310, math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff4000000000abc),
	}
	salted := func(n int) []float64 {
		v := make([]float64, n+1) // v[0] is cut off to unalign the slice
		for i := range v {
			if rng.Intn(3) == 0 {
				v[i] = special[rng.Intn(len(special))]
			} else {
				v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
			}
		}
		return v[1:]
	}
	for n := 0; n <= 70; n++ {
		for _, f := range fs {
			dst, src := salted(n), salted(n)
			want := append([]float64(nil), dst...)
			for j := range want {
				// The conversion keeps the reference unfused on every GOARCH.
				want[j] -= float64(f * src[j])
			}
			SubScaled(dst, f, src)
			sameBits(t, "SubScaled", dst, want)
		}
	}
}

func TestSubScaledLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SubScaled accepted a short src")
		}
	}()
	SubScaled(make([]float64, 5), 1, make([]float64, 4))
}
