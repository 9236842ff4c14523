package stats

import (
	"errors"
	"math"
	"math/bits"
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

// QuantileInPlace is Quantile without the defensive copy: xs is
// reordered in place. Hot paths use it with a reused scratch buffer.
// Rather than sorting, it selects the order statistic below the
// quantile's position (selectInPlace) and takes the one above as the
// smallest value past it, so it returns what Quantile returns (a zero's
// sign aside, which an unstable sort leaves unspecified too) in
// expected linear time.
func QuantileInPlace(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if !(q >= 0 && q <= 1) { // also rejects NaN, which passes < and > checks
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	if len(xs) == 1 {
		return xs[0], nil
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v := selectInPlace(xs, lo)
	if lo == hi {
		return v, nil
	}
	// Everything past lo sorts no earlier than v, NaNs first: a NaN at
	// lo+1 stays the minimum, since nothing compares below it.
	w := xs[hi]
	for _, u := range xs[hi+1:] {
		if u < w {
			w = u
		}
	}
	frac := pos - float64(lo)
	return v*(1-frac) + w*frac, nil
}

// MedianInPlace returns the median of xs, reordering xs in place.
func MedianInPlace(xs []float64) (float64, error) {
	return QuantileInPlace(xs, 0.5)
}

// selectInPlace reorders xs so that xs[k] holds a value sort.Float64s
// would put at index k, nothing before it sorts later and nothing after
// it sorts earlier, and returns xs[k]. Like sort.Float64s it orders NaN
// first: NaNs are gathered at the front and the rest goes to
// quickselect, with a budget of 2·log2(n) partitions.
func selectInPlace(xs []float64, k int) float64 {
	nan := 0
	for i, v := range xs {
		if math.IsNaN(v) {
			xs[i], xs[nan] = xs[nan], v
			nan++
		}
	}
	if k < nan {
		return xs[k]
	}
	s := xs[nan:]
	return quickselect(s, k-nan, 2*bits.Len(uint(len(s))))
}

// quickselect is selectInPlace on a NaN-free s: three-way partitions
// around the median of the values a quarter, half and three quarters of
// the way through the range (so sorted, reversed and rise-then-fall
// inputs split evenly), insertion sort once the range holds at most 12
// values. A range still larger after budget partitions is sorted, which
// bounds the worst case at O(n log n).
func quickselect(s []float64, k, budget int) float64 {
	lo, hi := 0, len(s)-1
	for ; hi-lo >= 12; budget-- {
		if budget == 0 {
			sort.Float64s(s[lo : hi+1])
			return s[k]
		}
		q := (hi - lo) / 4
		a, b, c := s[lo+q], s[lo+2*q], s[hi-q]
		if b < a {
			a, b = b, a
		}
		if c < b {
			b = max(a, c)
		}
		// Partition around pivot b: [lo, lt) < b, [lt, gt] equal to b,
		// (gt, hi] > b.
		lt, gt := lo, hi
		for i := lo; i <= gt; {
			switch v := s[i]; {
			case v < b:
				s[lt], s[i] = v, s[lt]
				lt++
				i++
			case b < v:
				s[gt], s[i] = v, s[gt]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return s[k]
		}
	}
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[k]
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

// AR1NoiseEstimator computes Estimate and RobustDiffStd on a reusable
// scratch buffer, so per-identity noise separation inside a detection
// round allocates nothing after warm-up. The zero value is ready to use;
// an estimator is not safe for concurrent use.
type AR1NoiseEstimator struct {
	diffs []float64
}

// RobustDiffStd estimates the standard deviation of the i.i.d.
// high-frequency noise riding on a slowly varying series, from the median
// absolute first difference: for x_t = s_t + n_t with s nearly constant
// across adjacent samples, x_t - x_{t-1} ~ N(0, 2*sigma_n^2), and
// MAD/0.6745 estimates its standard deviation robustly (immune to the
// occasional genuine jump). Series shorter than 3 samples return 0.
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

// Estimate separates i.i.d. measurement noise from a correlated
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
