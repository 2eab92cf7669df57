package vec

// subScaledSIMD runs the AVX2 kernel over dst's leading whole blocks of
// subScaledBlock and returns how many elements it wrote, 0 without AVX2.
// SubScaled has checked that src is as long as dst.
func subScaledSIMD(dst []float64, f float64, src []float64) int {
	n := len(dst) &^ (subScaledBlock - 1)
	if !hasAVX2 || n == 0 {
		return 0
	}
	subScaledBlocks(&dst[0], f, &src[0], n)
	return n
}

//go:noescape
func subScaledBlocks(dst *float64, f float64, src *float64, n int)
