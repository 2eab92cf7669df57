package vec

import "fmt"

// subScaledBlock is the number of lanes one step of the SubScaled kernel
// computes. Shorter slices and the tail of a longer one take the Go loop.
const subScaledBlock = 4

// SubScaled sets dst[j] -= f·src[j] for every j: the simplex row update. The
// product is rounded, then subtracted, as the scalar loop rounds it. On
// amd64 with AVX2 whole blocks of four run as one VMULPD then one VSUBPD
// (subscaled_amd64.s), never an FMA, so every element keeps the scalar
// loop's bits. It panics if the lengths differ.
func SubScaled(dst []float64, f float64, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("vec: SubScaled length mismatch %d != %d", len(dst), len(src)))
	}
	j := subScaledSIMD(dst, f, src)
	subScaledGeneric(dst[j:], f, src[j:])
}

// subScaledGeneric is SubScaled's portable loop. The conversion keeps the
// product rounded on its own: without it a compiler may fuse the multiply
// and subtract into one FMA, which rounds once and changes the bits.
func subScaledGeneric(dst []float64, f float64, src []float64) {
	src = src[:len(dst)]
	for j := range dst {
		dst[j] -= float64(f * src[j])
	}
}
