package vec

import "math"

// hasSELU is fixed once at start-up: the CPU has AVX2 and FMA, and math.Exp
// takes the FMA branch of exp_amd64.s, the one seluBlocks reproduces. Go's
// math picks that branch itself from CPUID, which GODEBUG=cpu.fma=off
// overrides, so the kernel is confirmed against math.Exp on inputs where the
// two branches round differently instead of being trusted from CPUID.
var hasSELU = hasAVX2 && hasFMA && seluMatchesExp()

// expProbes are inputs on which math.Exp's SSE2 and FMA branches differ in
// the last bit (TestExpProbesSplitBranches checks it).
var expProbes = [SELUBlock]float64{
	-0.5209945711531503, -0.18902358546064923, -0.31653724289408824, -1.2382452961026902,
}

// seluMatchesExp runs the kernel over the probes and compares its
// exponentials with math.Exp's, bit for bit.
func seluMatchesExp() bool {
	var out, ex [SELUBlock]float64
	if seluBlocks(&out[0], &ex[0], &expProbes[0], SELUBlock, 1, 1) != SELUBlock {
		return false
	}
	for i, x := range expProbes {
		if math.Float64bits(ex[i]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}

//go:noescape
func seluBlocks(out, ex, x *float64, n int, lambda, scale float64) int

//go:noescape
func seluGradBlocks(gin, grad, x *float64, n int, lambda, alpha float64)
