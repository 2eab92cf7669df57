package vec

import (
	"math"
	"math/rand"
	"testing"
)

// The SELU constants of internal/nn (Klambauer et al.), for the scalar
// reference loops below.
const (
	testSELUAlpha  = 1.6732632423543772
	testSELULambda = 1.0507009873554805
)

// seluRef is the scalar SELU forward of internal/nn: the reference every
// kernel lane must match bit for bit.
func seluRef(out, ex, x []float64) {
	for i, xi := range x {
		if xi > 0 {
			out[i] = testSELULambda * xi
		} else {
			e := math.Exp(xi)
			ex[i] = e
			out[i] = testSELULambda * testSELUAlpha * (e - 1)
		}
	}
}

// seluGradRef is the scalar SELU backward of internal/nn.
func seluGradRef(gin, g, x []float64) {
	for i, xi := range x {
		if xi > 0 {
			gin[i] = g[i] * testSELULambda
		} else {
			gin[i] = g[i] * testSELULambda * testSELUAlpha * gin[i]
		}
	}
}

// seluKernel runs x the way internal/nn does: whole blocks through SELU, and
// the scalar loop over the tail and every block the range gate refuses.
func seluKernel(out, ex, x []float64) {
	i := 0
	if SELUKernel() {
		for {
			i += SELU(out[i:], ex[i:], x[i:], testSELULambda, testSELULambda*testSELUAlpha)
			if len(x)-i < SELUBlock {
				break
			}
			seluRef(out[i:i+SELUBlock], ex[i:i+SELUBlock], x[i:i+SELUBlock])
			i += SELUBlock
		}
	}
	seluRef(out[i:], ex[i:], x[i:])
}

// expSweep draws n inputs inside the kernel's range, x ≥ −708: normal values
// of both signs, uniform on [−708, 0], tiny negatives down to −1e−300,
// moderate negatives, and the k-rounding ties (m+½)·ln2 with their ±1 ulp
// neighbours, where x·log2(e) lands next to a half-integer and exp's
// reduction must round k exactly as CVTSD2SL does.
func expSweep(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch i % 5 {
		case 0:
			xs[i] = 3 * rng.NormFloat64()
		case 1:
			xs[i] = -708 * rng.Float64()
		case 2:
			xs[i] = -math.Pow(10, -300*rng.Float64())
		case 3:
			x := (float64(-rng.Intn(1022)) + 0.5) * math.Ln2
			switch rng.Intn(3) {
			case 1:
				x = math.Nextafter(x, math.Inf(-1))
			case 2:
				x = math.Nextafter(x, math.Inf(1))
			}
			xs[i] = x
		default:
			xs[i] = -rng.ExpFloat64()
		}
	}
	return xs
}

// sameSELU compares a kernel run with the scalar reference: out everywhere,
// ex wherever the scalar loop writes it (x ≤ 0 or NaN).
func sameSELU(t *testing.T, x, out, ex, wantOut, wantEx []float64) {
	t.Helper()
	for i, xi := range x {
		if math.Float64bits(out[i]) != math.Float64bits(wantOut[i]) {
			t.Fatalf("SELU(%v) at %d = %#x, scalar %#x", xi, i, math.Float64bits(out[i]), math.Float64bits(wantOut[i]))
		}
		if !(xi > 0) && math.Float64bits(ex[i]) != math.Float64bits(wantEx[i]) {
			t.Fatalf("exp(%v) at %d = %#x, scalar %#x", xi, i, math.Float64bits(ex[i]), math.Float64bits(wantEx[i]))
		}
	}
}

// Over 4M inputs inside the range gate, the kernel runs every whole block
// and gives the scalar loop's out and ex bits.
func TestSELUMatchesScalar(t *testing.T) {
	t.Logf("SIMD kernels: %s", SIMD())
	rng := rand.New(rand.NewSource(11))
	const chunk, chunks = 1 << 16, 64 // 4,194,304 inputs
	out, ex := make([]float64, chunk), make([]float64, chunk)
	wantOut, wantEx := make([]float64, chunk), make([]float64, chunk)
	for c := 0; c < chunks; c++ {
		x := expSweep(rng, chunk)
		rng.Shuffle(len(x), func(i, j int) { x[i], x[j] = x[j], x[i] })
		seluRef(wantOut, wantEx, x)
		n := SELU(out, ex, x, testSELULambda, testSELULambda*testSELUAlpha)
		if SELUKernel() && n != chunk {
			t.Fatalf("SELU stopped at %d of %d in-range inputs (x = %v)", n, chunk, x[n])
		}
		seluRef(out[n:], ex[n:], x[n:])
		sameSELU(t, x, out, ex, wantOut, wantEx)
	}
}

// seluEdges are the inputs at and past the kernel's range and math.Exp's
// special cases. gated says whether the range gate must refuse a block
// holding it.
var seluEdges = []struct {
	x     float64
	gated bool
}{
	{0, false},
	{math.Copysign(0, -1), false},
	{-708, false},
	{math.Nextafter(-708, 0), false},
	{math.Nextafter(-708, math.Inf(-1)), true},
	{-708.4, true},
	{-745.2, true},
	{-746, true},
	{math.NaN(), true},
	{math.Inf(-1), true},
	{math.Inf(1), false},
	{math.MaxFloat64, false},
	{5e-324, false},
	{-5e-324, false},
	{-2.5e-310, false},
	{math.SmallestNonzeroFloat64 * 1e10, false},
	{-1e-300, false},
	{-0.5 * math.Ln2, false},
	{math.Nextafter(-1020.5*math.Ln2, 0), false},
	{-1021.5 * math.Ln2, true},
	{-1022.5 * math.Ln2, true},
}

// Each edge value in each lane of a block, among normal inputs, in inputs of
// one to three blocks plus a tail: the gate refuses exactly the blocks it
// must, and the kernel with its scalar fallback gives the scalar bits.
func TestSELUEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, e := range seluEdges {
		for n := SELUBlock; n <= 3*SELUBlock+3; n++ {
			for at := 0; at < n; at++ {
				x := make([]float64, n)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				x[at] = e.x
				out, ex := make([]float64, n), make([]float64, n)
				wantOut, wantEx := make([]float64, n), make([]float64, n)
				seluRef(wantOut, wantEx, x)
				seluKernel(out, ex, x)
				sameSELU(t, x, out, ex, wantOut, wantEx)

				if !SELUKernel() {
					continue
				}
				want := n &^ (SELUBlock - 1)
				if e.gated && at < want {
					want = at &^ (SELUBlock - 1)
				}
				if got := SELU(out, ex, x, testSELULambda, testSELULambda*testSELUAlpha); got != want {
					t.Fatalf("x = %v at %d of %d: SELU ran %d lanes, want %d", e.x, at, n, got, want)
				}
			}
		}
	}
}

// guarded returns a slice of length n whose backing array runs on past it,
// filled with a sentinel, and a check that nothing past n was written.
func guarded(t *testing.T, n int) ([]float64, func(string)) {
	t.Helper()
	const pad = 2 * SELUBlock
	buf := make([]float64, n+pad)
	for i := range buf {
		buf[i] = -12345
	}
	return buf[:n], func(what string) {
		t.Helper()
		for _, v := range buf[n:] {
			if v != -12345 {
				t.Fatalf("%s of length %d wrote past its end", what, n)
			}
		}
	}
}

// Lengths 0–9 and other non-multiples of the block: the kernels write only
// inside the slices, and the kernel-plus-tail result is the scalar one.
func TestSELULengths(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 31, 63, 64, 65, 322} {
		x := make([]float64, n)
		for i := range x {
			x[i] = 2 * rng.NormFloat64()
		}
		out, outOK := guarded(t, n)
		ex, exOK := guarded(t, n)
		wantOut, wantEx := make([]float64, n), make([]float64, n)
		seluRef(wantOut, wantEx, x)
		seluKernel(out, ex, x)
		outOK("SELU out")
		exOK("SELU ex")
		sameSELU(t, x, out, ex, wantOut, wantEx)

		g := make([]float64, n)
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		gin, ginOK := guarded(t, n)
		copy(gin, ex)
		want := append([]float64(nil), ex...)
		seluGradRef(want, g, x)
		i := SELUGrad(gin, g, x, testSELULambda, testSELUAlpha)
		seluGradRef(gin[i:], g[i:], x[i:])
		ginOK("SELUGrad")
		sameBits(t, "SELUGrad", gin, want)
	}
}

// The branch-free gradient gives the scalar loop's bits over the same sweep
// plus the edge values, whatever the kept exponential holds where x > 0 (the
// forward kernel leaves 1 there, the scalar loop leaves it stale).
func TestSELUGradMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := expSweep(rng, 1<<16)
	for k, e := range seluEdges {
		x[17*k] = e.x
	}
	out, ex := make([]float64, len(x)), make([]float64, len(x))
	seluKernel(out, ex, x)
	g := make([]float64, len(x))
	stale := []float64{math.NaN(), math.Inf(1), 0, -1e308, 5e-324}
	for i := range g {
		g[i] = rng.NormFloat64()
		if x[i] > 0 {
			ex[i] = stale[i%len(stale)]
		}
	}
	want := append([]float64(nil), ex...)
	seluGradRef(want, g, x)
	n := SELUGrad(ex, g, x, testSELULambda, testSELUAlpha)
	if hasAVX2 && n != len(x) {
		t.Fatalf("SELUGrad ran %d of %d", n, len(x))
	}
	seluGradRef(ex[n:], g[n:], x[n:])
	sameBits(t, "SELUGrad", ex, want)
}

func TestSELURejectsShortOutputs(t *testing.T) {
	x := make([]float64, 8)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"SELU out", func() { SELU(make([]float64, 7), make([]float64, 8), x, 1, 1) }},
		{"SELU ex", func() { SELU(make([]float64, 8), make([]float64, 4), x, 1, 1) }},
		{"SELUGrad gin", func() { SELUGrad(make([]float64, 7), make([]float64, 8), x, 1, 1) }},
		{"SELUGrad g", func() { SELUGrad(make([]float64, 8), nil, x, 1, 1) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: short slice accepted", c.name)
				}
			}()
			c.run()
		}()
	}
}
