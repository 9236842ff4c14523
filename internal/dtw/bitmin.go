//go:build !race

package dtw

import "math"

// bitMin returns b if it is strictly smaller than a, else a, comparing
// IEEE-754 bit patterns as unsigned integers so the selection compiles
// to a conditional move instead of a data-dependent branch. For +0,
// positive finite values and +Inf the bit order is the numeric order
// (the sign bit is clear, and the biased exponent and mantissa grow
// with the value), so on the banded kernel's DP values bitMin equals
// the strict-less float comparison. It is not a float minimum for
// negative values or NaN.
func bitMin(a, b float64) float64 {
	ua, ub := math.Float64bits(a), math.Float64bits(b)
	if ub < ua {
		ua = ub
	}
	return math.Float64frombits(ua)
}
