package vec

import "fmt"

// SELU kernels for the DQN's hidden activation, bit-identical to the scalar
// loops in internal/nn that stay their fallback and the tests' reference.
//
// The forward needs exp. Go's amd64 math.Exp (exp_amd64.s) is Shibata's
// SLEEF method: straight-line arithmetic except for its special cases, with
// an SSE2 branch and an FMA branch that round differently. seluBlocks
// (selu_amd64.s) runs the FMA branch's instructions in packed form, so each
// of its four lanes gives math.Exp's bits exactly. Three rules keep it so:
//   - The kernel runs only where math.Exp itself takes the FMA branch: CPUID
//     reports AVX2 and FMA, and at start-up the kernel matches math.Exp on
//     probe inputs where the two branches differ (GODEBUG=cpu.fma=off sends
//     math.Exp down the SSE2 branch, and the probes then turn the kernel off).
//   - A range gate: a block with any lane below −708 or NaN, where math.Exp
//     takes its denormal, underflow or not-finite branches, is left to the
//     caller's scalar loop. Lanes above 0 need no gate: the kernel
//     exponentiates min(x, 0), and their output is λ·x.
//   - Every other operation is the scalar loop's, in its order: λ·x, and
//     scale·(e − 1) with scale the Go constant λ·α, which Go folds exactly
//     before it rounds.
//
// The backward kernel needs no exp: it blends g·λ and ((g·λ)·α)·e, the
// scalar loop's left-to-right products, by the sign of x, with no branch.
// It needs only AVX2.

// SELUBlock is the number of lanes one SELU kernel step computes.
const SELUBlock = 4

// SELU runs the SELU kernel over x's leading whole blocks of SELUBlock
// lanes, setting e = exp(min(x[i], 0)), ex[i] = e and
// out[i] = x[i] > 0 ? lambda·x[i] : scale·(e − 1). It stops before the first
// block with a lane below −708 or NaN, and returns how many leading elements
// it wrote: a multiple of SELUBlock, 0 when SELUKernel is false. The caller's
// scalar loop takes over from there.
func SELU(out, ex, x []float64, lambda, scale float64) int {
	if len(out) < len(x) || len(ex) < len(x) {
		panic(fmt.Sprintf("vec: SELU out %d, ex %d for %d inputs", len(out), len(ex), len(x)))
	}
	n := len(x) &^ (SELUBlock - 1)
	if !hasSELU || n == 0 {
		return 0
	}
	return seluBlocks(&out[0], &ex[0], &x[0], n, lambda, scale)
}

// SELUKernel reports whether SELU runs its kernel in this process.
func SELUKernel() bool { return hasSELU }

// SELUGrad sets gin[i] = x[i] > 0 ? g[i]·lambda : ((g[i]·lambda)·alpha)·gin[i]
// over x's leading whole blocks of SELUBlock lanes on AVX2 hosts, and
// returns how many leading elements it wrote (0 without AVX2).
func SELUGrad(gin, g, x []float64, lambda, alpha float64) int {
	if len(gin) < len(x) || len(g) < len(x) {
		panic(fmt.Sprintf("vec: SELUGrad gin %d, g %d for %d inputs", len(gin), len(g), len(x)))
	}
	n := len(x) &^ (SELUBlock - 1)
	if !hasAVX2 || n == 0 {
		return 0
	}
	seluGradBlocks(&gin[0], &g[0], &x[0], n, lambda, alpha)
	return n
}
