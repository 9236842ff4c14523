package dtw

import "errors"

// ErrLengthMismatch is returned by EuclideanSquared for ragged inputs —
// the failure mode DTW exists to avoid.
var ErrLengthMismatch = errors.New("dtw: Euclidean distance requires equal lengths")

// EuclideanSquared is the pointwise squared-error sum for equal-length
// series: the no-warp baseline DTW is measured against (it shares the
// squared cost of Equation 3 but allows no warping at all), and the
// value BandPathUpperBound degenerates to at equal lengths. Section IV-B
// argues against such point-to-point norms (the paper's Equation 2) for
// RSSI comparison precisely because they need two series of the same
// length, while packet loss makes VANET series ragged.
func EuclideanSquared(x, y []float64) (float64, error) {
	if len(x) == 0 || len(y) == 0 {
		return 0, ErrEmptySeries
	}
	if len(x) != len(y) {
		return 0, ErrLengthMismatch
	}
	var sum float64
	for i := range x {
		d := x[i] - y[i]
		sum += float64(d * d)
	}
	return sum, nil
}
