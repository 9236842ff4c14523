package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"symmetric", []float64{-1, 0, 1}, 0},
		{"typical", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-80, -70}, -75},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.xs, got, tt.want)
			}
		})
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestSampleVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := SampleVariance(xs); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("SampleVariance = %v, want 2.5", got)
	}
	if got := SampleVariance([]float64{7}); got != 0 {
		t.Errorf("SampleVariance(single) = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{3, -2, 8, 0})
	if err != nil {
		t.Fatalf("MinMax returned error: %v", err)
	}
	if lo != -2 || hi != 8 {
		t.Errorf("MinMax = (%v, %v), want (-2, 8)", lo, hi)
	}
	if _, _, err := MinMax(nil); err == nil {
		t.Error("MinMax(nil) should error")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, tt := range tests {
		got, err := Quantile(xs, tt.q)
		if err != nil {
			t.Fatalf("Quantile(%v) error: %v", tt.q, err)
		}
		if !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("Quantile(nil) should error")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("Quantile(q>1) should error")
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("Quantile mutated its input: %v", xs)
	}
}

func TestSkewnessSymmetric(t *testing.T) {
	xs := []float64{-2, -1, 0, 1, 2}
	if got := Skewness(xs); !almostEqual(got, 0, 1e-12) {
		t.Errorf("Skewness(symmetric) = %v, want 0", got)
	}
}

func TestKurtosisOfNormalSample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	if got := Kurtosis(xs); !almostEqual(got, 0, 0.1) {
		t.Errorf("Kurtosis(normal sample) = %v, want ~0", got)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3})
	if err != nil {
		t.Fatalf("Summarize error: %v", err)
	}
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 || s.Median != 2 {
		t.Errorf("Summarize = %+v", s)
	}
	if _, err := Summarize(nil); err == nil {
		t.Error("Summarize(nil) should error")
	}
}

func TestMeanBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		lo, hi, err := MinMax(xs)
		if err != nil {
			return false
		}
		m := Mean(xs)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVarianceNonNegativeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				xs = append(xs, x)
			}
		}
		return Variance(xs) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVarianceShiftInvarianceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		xs := make([]float64, n)
		shifted := make([]float64, n)
		shift := rng.Float64()*200 - 100
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			shifted[i] = xs[i] + shift
		}
		if !almostEqual(Variance(xs), Variance(shifted), 1e-6) {
			t.Fatalf("variance not shift-invariant: %v vs %v",
				Variance(xs), Variance(shifted))
		}
	}
}

func TestRobustDiffStd(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	// Slowly varying trend + iid noise: estimator recovers the noise.
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = 0.01*float64(i) + 0.5*rng.NormFloat64()
	}
	if got := new(AR1NoiseEstimator).RobustDiffStd(xs); !almostEqual(got, 0.5, 0.05) {
		t.Errorf("RobustDiffStd = %v, want ~0.5", got)
	}
	if new(AR1NoiseEstimator).RobustDiffStd([]float64{1, 2}) != 0 {
		t.Error("short series should return 0")
	}
}

func TestEstimateAR1Noise(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	gen := func(n int, rho, sigmaS, sigmaN float64) []float64 {
		xs := make([]float64, n)
		s := sigmaS * rng.NormFloat64()
		for i := range xs {
			if i > 0 {
				s = rho*s + sigmaS*math.Sqrt(1-rho*rho)*rng.NormFloat64()
			}
			xs[i] = s + sigmaN*rng.NormFloat64()
		}
		return xs
	}
	tests := []struct {
		name                string
		rho, sigmaS, sigmaN float64
		tol                 float64
	}{
		{"fast shadow", 0.78, 3.9, 0.5, 0.3},
		{"slow shadow", 0.97, 3.9, 0.5, 0.3},
		{"no shadow", 0, 0, 1.0, 0.2},
		{"big noise", 0.9, 2.0, 2.0, 0.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			// Average over repetitions: the moment estimator is noisy on a
			// single 200-sample series.
			var sum float64
			const reps = 30
			for r := 0; r < reps; r++ {
				got, ok := new(AR1NoiseEstimator).Estimate(gen(200, tt.rho, tt.sigmaS, tt.sigmaN))
				if !ok {
					t.Fatal("estimator failed")
				}
				sum += got
			}
			if mean := sum / reps; !almostEqual(mean, tt.sigmaN, tt.tol) {
				t.Errorf("mean sigmaN = %.3f, want %.1f +- %.1f", mean, tt.sigmaN, tt.tol)
			}
		})
	}
	if _, ok := new(AR1NoiseEstimator).Estimate([]float64{1, 2, 3}); ok {
		t.Error("short series should fail")
	}
}

func TestSkewnessKurtosisDegenerate(t *testing.T) {
	if Skewness([]float64{5}) != 0 || Kurtosis([]float64{5}) != 0 {
		t.Error("single sample should yield 0 moments")
	}
	flat := []float64{3, 3, 3}
	if Skewness(flat) != 0 || Kurtosis(flat) != 0 {
		t.Error("zero-variance sample should yield 0 moments")
	}
}

func TestLagVarRobustShort(t *testing.T) {
	var e AR1NoiseEstimator
	if e.lagVar([]float64{1}, 1) != 0 {
		t.Error("too-short series should yield 0")
	}
}
