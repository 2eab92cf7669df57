//go:build !amd64

package vec

// This architecture has no assembly kernels: every pass runs the generic Go
// loops, and the SELU entry points report that they did nothing.
const hasAVX2, hasSELU = false, false

func mulAddSIMD(dst, init, a []float64, as int, b []float64, bs, n int) int { return 0 }

func seluBlocks(out, ex, x *float64, n int, lambda, scale float64) int { return 0 }

func seluGradBlocks(gin, grad, x *float64, n int, lambda, alpha float64) {}
