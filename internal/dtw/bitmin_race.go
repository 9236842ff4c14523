//go:build race

package dtw

// bitMin is the race-detector build of bitMin (bitmin.go): the same
// strict-less selection as a float comparison. Race builds enable
// checkptr, which turns each unsafe reinterpretation inside
// math.Float64bits into two runtime calls and made the kernel twice as
// slow as the branchy kernel it replaced; on the kernel's values (+0,
// positive finite, +Inf) both forms return the same bits.
func bitMin(a, b float64) float64 {
	if b < a {
		return b
	}
	return a
}
