package stats

import (
	"errors"
	"math"
)

// TestResult is the outcome of a hypothesis test.
type TestResult struct {
	// Statistic is the test statistic.
	Statistic float64
	// PValue is the p-value of the test.
	PValue float64
	// Reject reports whether the null hypothesis is rejected at the
	// significance level the test was run with.
	Reject bool
}

// ChiSquareNormality tests H0: xs is drawn from a normal distribution with
// the sample's own mean and standard deviation, by binning into nbins
// equal-probability bins and comparing observed vs expected counts.
// Degrees of freedom are nbins-3 (two estimated parameters). The paper's
// Observation 1 notes RSSI "barely shows the normal distribution" while
// moving; this test quantifies that.
func ChiSquareNormality(xs []float64, nbins int, alpha float64) (TestResult, error) {
	if len(xs) < nbins*5 {
		return TestResult{}, errors.New("stats: chi-square needs >=5 expected per bin")
	}
	if nbins < 4 {
		return TestResult{}, errors.New("stats: chi-square normality needs >=4 bins")
	}
	mu := Mean(xs)
	sigma := StdDev(xs)
	// StdDev is non-negative; <= is the NaN-safe exact zero test.
	if sigma <= 0 {
		// A constant sample is maximally non-normal; reject outright.
		return TestResult{Statistic: math.Inf(1), PValue: 0, Reject: true}, nil
	}
	// Equal-probability bin edges from the normal quantiles.
	edges := make([]float64, nbins+1)
	edges[0] = math.Inf(-1)
	edges[nbins] = math.Inf(1)
	for i := 1; i < nbins; i++ {
		edges[i] = mu + sigma*NormalQuantile(float64(i)/float64(nbins))
	}
	observed := make([]int, nbins)
	for _, x := range xs {
		// Linear scan is fine: nbins is small (typically 8-16).
		for b := 0; b < nbins; b++ {
			if x >= edges[b] && x < edges[b+1] {
				observed[b]++
				break
			}
		}
	}
	expected := float64(len(xs)) / float64(nbins)
	var stat float64
	for _, o := range observed {
		d := float64(o) - expected
		stat += d * d / expected
	}
	df := nbins - 3
	p := 1 - chiSquareCDF(stat, df)
	return TestResult{Statistic: stat, PValue: p, Reject: p < alpha}, nil
}

// ChiSquareCDF returns P(X <= x) for a chi-square distribution with k
// degrees of freedom.
func ChiSquareCDF(x float64, k int) float64 {
	return chiSquareCDF(x, k)
}

// FisherCombine combines independent two-sided p-values with Fisher's
// method: X = -2*sum(ln p_i) ~ chi-square with 2n degrees of freedom
// under the global null. It returns the combined p-value. Inputs are
// clamped away from zero to keep the statistic finite.
func FisherCombine(ps []float64, alpha float64) (TestResult, error) {
	if len(ps) == 0 {
		return TestResult{}, ErrEmpty
	}
	if alpha <= 0 || alpha >= 1 {
		return TestResult{}, errors.New("stats: Fisher needs alpha in (0,1)")
	}
	var x float64
	for _, p := range ps {
		if p < 1e-12 {
			p = 1e-12
		}
		if p > 1 {
			p = 1
		}
		x += -2 * math.Log(p)
	}
	combined := 1 - chiSquareCDF(x, 2*len(ps))
	return TestResult{Statistic: x, PValue: combined, Reject: combined < alpha}, nil
}
