package vec

import (
	"math"
	"math/rand"
	"testing"
)

// A pure-Go transcription of Go's amd64 math.Exp ($GOROOT/src/math/exp_amd64.s,
// Shibata's SLEEF method), one instruction per line, for both of its
// branches: the SSE2 one and the one it takes when the CPU has AVX and FMA
// (math's useFMA). math.FMA stands for the fused VFNMADD231SD/VFMADD213SD
// steps; every other line rounds once, as its MULSD/ADDSD/SUBSD does. The
// tests use it to pin which branch math.Exp takes in this process and that
// the SELU kernel reproduces that branch lane for lane.

const (
	expLog2e    = 1.4426950408889634073599246810018920
	expLn2U     = 0.69314718055966295651160180568695068359375
	expLn2L     = 0.28235290563031577122588448175013436025525412068e-12
	expOverflow = 7.09782712893384e+02
)

// expTaylor is exprodata<> in the order the assembly addresses it: +0 … +64.
var expTaylor = [9]float64{
	0.5, 1.0, 2.0,
	1.6666666666666666667e-1,
	4.1666666666666666667e-2,
	8.3333333333333333333e-3,
	1.3888888888888888889e-3,
	1.9841269841269841270e-4,
	2.4801587301587301587e-5,
}

// cvtsd2sl is CVTSD2SL under the default MXCSR: round half to even, and the
// "integer indefinite" 0x80000000 for NaN and out-of-range inputs.
func cvtsd2sl(v float64) int32 {
	r := math.RoundToEven(v)
	if !(r >= math.MinInt32 && r <= math.MaxInt32) {
		return math.MinInt32
	}
	return int32(r)
}

// pow2Bits is SHLQ $52 of a register whose low 32 bits ADDL just wrote (and
// so zero-extended), read as a float64.
func pow2Bits(bx int32) float64 {
	return math.Float64frombits(uint64(uint32(bx)) << 52)
}

// archExpRef is math.Exp as exp_amd64.s computes it, taking the FMA branch
// when fma is set.
func archExpRef(x float64, fma bool) float64 {
	c := &expTaylor
	bits := math.Float64bits(x)
	if bits&^(1<<63) >= 0x7FF0000000000000 { // notFinite
		if bits == 0xFFF0000000000000 {
			return 0 // -Inf
		}
		return x // NaN or +Inf
	}
	if x > expOverflow {
		return math.Inf(1)
	}
	x0 := x
	x1 := expLog2e * x0
	bx := cvtsd2sl(x1)
	x1 = float64(bx)
	if fma {
		x0 = math.FMA(-x1, expLn2U, x0)
		x0 = math.FMA(-x1, expLn2L, x0)
		x0 *= 0.0625
		x1 = c[8]
		for _, k := range []int{7, 6, 5, 4, 3, 0, 1} {
			x1 = math.FMA(x0, x1, c[k])
		}
		x0 *= x1
		for r := 0; r < 3; r++ {
			x1 = x0 + c[2]
			x0 *= x1
		}
		x1 = x0 + c[2]
		x0 = math.FMA(x1, x0, c[1])
	} else {
		x2 := expLn2U * x1
		x0 -= x2
		x2 = expLn2L * x1
		x0 -= x2
		x0 *= 0.0625
		x1 = c[8]
		for _, k := range []int{7, 6, 5, 4, 3, 0, 1} {
			x1 *= x0
			x1 += c[k]
		}
		x0 *= x1
		for r := 0; r < 4; r++ {
			x1 = c[2] + x0
			x0 *= x1
		}
		x0 += c[1]
	}
	// ldexp
	bx += 0x3FF
	if bx <= 0 { // denormal
		if bx < -52 {
			return 0 // underflow
		}
		bx += 0x3FE
		x0 *= pow2Bits(bx)
		bx = 1
	} else if bx >= 0x7FF {
		return math.Inf(1)
	}
	return x0 * pow2Bits(bx) // lastStep
}

// The transcription is what the tests below trust, so it must be math.Exp:
// over normal values, the kernel's range and its edges, math.Exp returns
// exactly the branch this process's selection implies.
//   - With the SELU kernel selected, math.Exp must be the FMA branch, the
//     one the kernel reproduces.
//   - On an AVX2+FMA CPU with the kernel off (GODEBUG=cpu.fma=off), and on a
//     CPU without FMA, it must be the SSE2 branch: the start-up probes were
//     right to keep the kernel off.
//   - Only a CPU with FMA but no AVX2 leaves math's branch open; there it
//     must still be one of the two, throughout.
func TestMathExpMatchesSelectedBranch(t *testing.T) {
	t.Logf("SIMD kernels: %s (CPUID AVX2 %v, FMA %v)", SIMD(), hasAVX2, hasFMA)
	xs := expSweep(rand.New(rand.NewSource(3)), 1<<18)
	var wantFMA bool
	switch {
	case hasSELU:
		wantFMA = true
	case hasFMA && !hasAVX2:
		wantFMA = math.Exp(expProbes[0]) == archExpRef(expProbes[0], true)
		t.Logf("FMA without AVX2: math.Exp takes the FMA branch: %v", wantFMA)
	}
	for _, x := range xs {
		got, want := math.Exp(x), archExpRef(x, wantFMA)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("math.Exp(%v) = %#x, the %s branch gives %#x", x,
				math.Float64bits(got), branchName(wantFMA), math.Float64bits(want))
		}
	}
}

func branchName(fma bool) string {
	if fma {
		return "FMA"
	}
	return "SSE2"
}

// The start-up probes must tell the two branches apart: on every probe the
// FMA and SSE2 branches differ, so a math.Exp on the SSE2 branch fails the
// probe check and keeps the kernel off.
func TestExpProbesSplitBranches(t *testing.T) {
	for _, x := range expProbes {
		if !(x >= -708 && x <= 0) {
			t.Fatalf("probe %v is outside the kernel's range", x)
		}
		f, s := archExpRef(x, true), archExpRef(x, false)
		if f == s {
			t.Fatalf("probe %v: both branches give %#x", x, math.Float64bits(f))
		}
	}
}
