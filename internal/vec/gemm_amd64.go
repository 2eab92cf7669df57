package vec

// hasAVX2 and hasFMA are fixed once at start-up: the CPU has AVX2 (and FMA)
// and the OS saves the ymm registers across context switches.
var hasAVX2, hasFMA = detectSIMD()

func detectSIMD() (avx2, fma bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const fma3, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false, false
	}
	// XCR0 bits 1 and 2: the OS saves the SSE and AVX (ymm) state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false, false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0, ecx1&fma3 != 0
}

// mulAddSIMD runs the AVX2 kernel over dst's leading whole 32-wide blocks
// and returns how many outputs it wrote, 0 without AVX2. mulAddRow has
// checked every bound the blocks touch and that n > 0.
func mulAddSIMD(dst, init, a []float64, as int, b []float64, bs, n int) int {
	if !hasAVX2 {
		return 0
	}
	j := 0
	for ; j+SIMDBlock <= len(dst); j += SIMDBlock {
		mulAddBlock32(&dst[j], &init[j], &a[0], as, &b[j], bs, n)
	}
	return j
}

//go:noescape
func mulAddBlock32(dst, init, a *float64, as int, b *float64, bs, n int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
