package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot operate on empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (divides by n, not n-1),
// or 0 for samples shorter than one element.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mu := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - mu
		sum += d * d
	}
	return sum / float64(len(xs))
}

// SampleVariance returns the unbiased sample variance of xs (divides by n-1),
// or 0 for samples shorter than two elements.
func SampleVariance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mu := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - mu
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// MinMax returns the smallest and largest values in xs.
// It returns ErrEmpty when xs is empty.
func MinMax(xs []float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns ErrEmpty when xs is
// empty and an error when q is out of range.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if !(q >= 0 && q <= 1) { // also rejects NaN, which passes < and > checks
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the median of xs, or ErrEmpty for an empty sample.
func Median(xs []float64) (float64, error) {
	return Quantile(xs, 0.5)
}

// QuantileInPlace is Quantile without the defensive copy: xs is sorted
// in place. Hot paths use it with a reused scratch buffer.
func QuantileInPlace(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if !(q >= 0 && q <= 1) { // also rejects NaN, which passes < and > checks
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	sort.Float64s(xs)
	if len(xs) == 1 {
		return xs[0], nil
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo], nil
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac, nil
}

// MedianInPlace returns the median of xs, sorting xs in place.
func MedianInPlace(xs []float64) (float64, error) {
	return QuantileInPlace(xs, 0.5)
}

// Skewness returns the sample skewness (third standardized moment) of xs.
// Samples with fewer than two elements or zero variance yield 0.
func Skewness(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mu := Mean(xs)
	sigma := StdDev(xs)
	// StdDev is non-negative, so <= is an exact zero test that stays
	// false (and lets NaN propagate) on non-finite input.
	if sigma <= 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		z := (x - mu) / sigma
		sum += z * z * z
	}
	return sum / float64(len(xs))
}

// Kurtosis returns the sample excess kurtosis (fourth standardized moment
// minus 3) of xs. Samples with fewer than two elements or zero variance
// yield 0.
func Kurtosis(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mu := Mean(xs)
	sigma := StdDev(xs)
	if sigma <= 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		z := (x - mu) / sigma
		sum += z * z * z * z
	}
	return sum/float64(len(xs)) - 3
}

// Summary bundles the descriptive statistics reported for RSSI
// distributions in the paper's Section III (Figure 5 captions report mean
// and standard deviation per period).
type Summary struct {
	N        int
	Mean     float64
	StdDev   float64
	Min      float64
	Max      float64
	Median   float64
	Skewness float64
	Kurtosis float64
}

// Summarize computes a Summary of xs. It returns ErrEmpty for an empty
// sample.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	lo, hi, err := MinMax(xs)
	if err != nil {
		return Summary{}, err
	}
	med, err := Median(xs)
	if err != nil {
		return Summary{}, err
	}
	return Summary{
		N:        len(xs),
		Mean:     Mean(xs),
		StdDev:   StdDev(xs),
		Min:      lo,
		Max:      hi,
		Median:   med,
		Skewness: Skewness(xs),
		Kurtosis: Kurtosis(xs),
	}, nil
}

// RobustDiffStd estimates the standard deviation of the i.i.d.
// high-frequency noise riding on a slowly varying series, from the median
// absolute first difference: for x_t = s_t + n_t with s nearly constant
// across adjacent samples, x_t - x_{t-1} ~ N(0, 2*sigma_n^2), and
// MAD/0.6745 estimates its standard deviation robustly (immune to the
// occasional genuine jump). Series shorter than 3 samples return 0.
func RobustDiffStd(xs []float64) float64 {
	var e AR1NoiseEstimator
	return e.RobustDiffStd(xs)
}

// AR1NoiseEstimator computes EstimateAR1Noise and RobustDiffStd on a
// reusable scratch buffer, so per-identity noise separation inside a
// detection round allocates nothing after warm-up. The zero value is
// ready to use; an estimator is not safe for concurrent use.
type AR1NoiseEstimator struct {
	diffs []float64
}

// RobustDiffStd is the package-level RobustDiffStd on reused scratch.
func (e *AR1NoiseEstimator) RobustDiffStd(xs []float64) float64 {
	if len(xs) < 3 {
		return 0
	}
	diffs := e.diffs[:0]
	for i := 1; i < len(xs); i++ {
		diffs = append(diffs, math.Abs(xs[i]-xs[i-1]))
	}
	e.diffs = diffs
	med, err := MedianInPlace(diffs)
	if err != nil {
		return 0
	}
	return med / 0.6745 / math.Sqrt2
}

// lagVar estimates Var(x_t - x_{t-lag}) robustly via the MAD.
func (e *AR1NoiseEstimator) lagVar(xs []float64, lag int) float64 {
	if len(xs) <= lag {
		return 0
	}
	diffs := e.diffs[:0]
	for i := lag; i < len(xs); i++ {
		diffs = append(diffs, math.Abs(xs[i]-xs[i-lag]))
	}
	e.diffs = diffs
	med, err := MedianInPlace(diffs)
	if err != nil {
		return 0
	}
	sd := med / 0.6745
	return sd * sd
}

// EstimateAR1Noise separates i.i.d. measurement noise from a correlated
// AR(1) component in a series x_t = s_t + n_t, s_t = rho*s_{t-1} + w_t,
// using the method of moments on lagged first differences:
//
//	Var(x_t - x_{t-k}) = 2*sigma_n^2 + 2*sigma_s^2*(1 - rho^k)
//
// so rho = (V3-V2)/(V2-V1) and sigma_n^2 = V1/2 - (V2-V1)/(2*rho).
// This is what the Voiceprint detector's adaptive cap needs: the expected
// DTW distance between two identities of one radio is set by the noise
// the identities do NOT share, and a naive first-difference estimator
// conflates fast-decorrelating shadowing with that noise. Returns ok=false
// for series shorter than 8 samples.
func EstimateAR1Noise(xs []float64) (sigmaN float64, ok bool) {
	var e AR1NoiseEstimator
	return e.Estimate(xs)
}

// Estimate is EstimateAR1Noise on the estimator's reused scratch.
func (e *AR1NoiseEstimator) Estimate(xs []float64) (sigmaN float64, ok bool) {
	if len(xs) < 8 {
		return 0, false
	}
	v1 := e.lagVar(xs, 1)
	v2 := e.lagVar(xs, 2)
	v3 := e.lagVar(xs, 3)
	d21 := v2 - v1
	d32 := v3 - v2
	if d21 <= 1e-12 || d32 <= 1e-12 {
		// No detectable AR growth: the differences are noise-dominated.
		return math.Sqrt(math.Max(v1/2, 0)), true
	}
	rho := d32 / d21
	if rho >= 0.995 {
		rho = 0.995 // near-random-walk shadow: d21 already ~ its increment
	}
	n2 := v1/2 - d21/(2*rho)
	if n2 < 0 {
		n2 = 0
	}
	return math.Sqrt(n2), true
}
