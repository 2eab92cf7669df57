//go:build !amd64

package vec

// SIMD names the kernel that runs whole output blocks in this process:
// always "generic" here, since this architecture has no assembly kernel.
func SIMD() string { return "generic" }

func mulAddSIMD(dst, init, a []float64, as int, b []float64, bs, n int) int { return 0 }
