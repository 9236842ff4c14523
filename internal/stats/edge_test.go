package stats

import (
	"errors"
	"math"
	"testing"
)

// Degenerate samples — empty, single-element, zero-variance — flow
// through the detector whenever an observation window opens on a fresh
// identity, so every descriptive statistic must return a well-defined
// finite value (or an explicit error) rather than panicking or leaking
// a silent NaN into downstream Z-scores and DTW caps.
func TestDegenerateSamplesYieldFiniteValues(t *testing.T) {
	samples := map[string][]float64{
		"empty":         {},
		"single":        {-70},
		"zero-variance": {-70, -70, -70, -70},
	}
	for name, xs := range samples {
		for fname, f := range map[string]func([]float64) float64{
			"Mean":           Mean,
			"Variance":       Variance,
			"SampleVariance": SampleVariance,
			"StdDev":         StdDev,
			"Skewness":       Skewness,
			"Kurtosis":       Kurtosis,
			"RobustDiffStd":  new(AR1NoiseEstimator).RobustDiffStd,
		} {
			if got := f(xs); math.IsNaN(got) || math.IsInf(got, 0) {
				t.Errorf("%s(%s) = %v, want finite", fname, name, got)
			}
		}
	}
	// Zero-variance and too-short inputs specifically must be exactly 0,
	// not merely finite.
	for _, f := range []func([]float64) float64{Variance, StdDev, Skewness, Kurtosis, new(AR1NoiseEstimator).RobustDiffStd} {
		if got := f(samples["zero-variance"]); got != 0 {
			t.Errorf("zero-variance statistic = %v, want 0", got)
		}
	}
	if got := SampleVariance(samples["single"]); got != 0 {
		t.Errorf("SampleVariance(single) = %v, want 0", got)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrEmpty) {
		t.Errorf("Quantile(empty) err = %v, want ErrEmpty", err)
	}
	if _, err := MedianInPlace(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("MedianInPlace(empty) err = %v, want ErrEmpty", err)
	}
	for _, q := range []float64{-0.01, 1.01, math.NaN()} {
		if _, err := Quantile([]float64{1, 2}, q); err == nil {
			t.Errorf("Quantile(q=%v) accepted an out-of-range quantile", q)
		}
	}
	for _, q := range []float64{0, 0.25, 0.5, 1} {
		got, err := Quantile([]float64{-70}, q)
		if err != nil || got != -70 {
			t.Errorf("Quantile(single, %v) = %v, %v; want -70", q, got, err)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("Summarize(empty) err = %v, want ErrEmpty", err)
	}
}

func TestEstimateAR1NoiseDegenerate(t *testing.T) {
	if _, ok := new(AR1NoiseEstimator).Estimate([]float64{1, 2, 3, 4, 5, 6, 7}); ok {
		t.Error("7 samples must report ok=false")
	}
	constant := make([]float64, 32)
	for i := range constant {
		constant[i] = -70
	}
	sigma, ok := new(AR1NoiseEstimator).Estimate(constant)
	if !ok || sigma != 0 || math.IsNaN(sigma) {
		t.Errorf("Estimate(constant) = %v, %v; want 0, true", sigma, ok)
	}
}
