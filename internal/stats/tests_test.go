package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestNormalCDFKnownValues(t *testing.T) {
	tests := []struct {
		x, mu, sigma float64
		want         float64
	}{
		{0, 0, 1, 0.5},
		{1.959963984540054, 0, 1, 0.975},
		{-1.959963984540054, 0, 1, 0.025},
		{10, 10, 3, 0.5},
		{13, 10, 3, 0.8413447460685429},
	}
	for _, tt := range tests {
		if got := NormalCDF(tt.x, tt.mu, tt.sigma); !almostEqual(got, tt.want, 1e-9) {
			t.Errorf("NormalCDF(%v,%v,%v) = %v, want %v", tt.x, tt.mu, tt.sigma, got, tt.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, q := range []float64{0.001, 0.01, 0.025, 0.1, 0.5, 0.9, 0.975, 0.99, 0.999} {
		z := NormalQuantile(q)
		back := NormalCDF(z, 0, 1)
		if !almostEqual(back, q, 1e-8) {
			t.Errorf("CDF(Quantile(%v)) = %v", q, back)
		}
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("NormalQuantile should diverge at 0 and 1")
	}
}

func TestChiSquareNormalityAcceptsNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	xs := make([]float64, 2000)
	for j := range xs {
		xs[j] = 5 + 2*rng.NormFloat64()
	}
	res, err := ChiSquareNormality(xs, 10, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject {
		t.Errorf("chi-square rejected a normal sample (stat=%v p=%v)", res.Statistic, res.PValue)
	}
}

func TestChiSquareNormalityRejectsUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	xs := make([]float64, 2000)
	for j := range xs {
		xs[j] = rng.Float64() * 10
	}
	res, err := ChiSquareNormality(xs, 10, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject {
		t.Errorf("chi-square failed to reject uniform sample (p=%v)", res.PValue)
	}
}

func TestChiSquareNormalityRejectsBimodal(t *testing.T) {
	// RSSI from a moving vehicle is often bimodal (near/far segments);
	// Observation 1 relies on a normality test catching this.
	rng := rand.New(rand.NewSource(46))
	xs := make([]float64, 2000)
	for j := range xs {
		if j%2 == 0 {
			xs[j] = -85 + rng.NormFloat64()
		} else {
			xs[j] = -65 + rng.NormFloat64()
		}
	}
	res, err := ChiSquareNormality(xs, 10, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject {
		t.Error("chi-square failed to reject bimodal sample")
	}
}

func TestChiSquareNormalityConstantSample(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = -95 // clipped at RX sensitivity
	}
	res, err := ChiSquareNormality(xs, 8, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject {
		t.Error("constant sample should be rejected as non-normal")
	}
}

func TestChiSquareCDFKnownValues(t *testing.T) {
	// chi-square with k dof has median approximately k(1-2/(9k))^3.
	tests := []struct {
		x    float64
		k    int
		want float64
		tol  float64
	}{
		{0.0, 1, 0.0, 1e-12},
		{1.0, 1, 0.6826894921, 1e-6}, // P(|Z|<1)
		{3.841458821, 1, 0.95, 1e-6}, // 95th percentile of chi2(1)
		{5.991464547, 2, 0.95, 1e-6},
		{2.0, 2, 0.6321205588, 1e-6}, // 1-exp(-1)
	}
	for _, tt := range tests {
		if got := chiSquareCDF(tt.x, tt.k); !almostEqual(got, tt.want, tt.tol) {
			t.Errorf("chiSquareCDF(%v,%v) = %v, want %v", tt.x, tt.k, got, tt.want)
		}
	}
}

func TestFisherCombine(t *testing.T) {
	// Uniform p-values should not reject.
	res, err := FisherCombine([]float64{0.5, 0.7, 0.3, 0.9, 0.6}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject {
		t.Errorf("unremarkable p-values rejected (p=%v)", res.PValue)
	}
	// Several small p-values should combine into a rejection even though
	// none alone crosses alpha.
	res, err = FisherCombine([]float64{0.08, 0.06, 0.09, 0.07, 0.08}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject {
		t.Errorf("consistent near-misses should combine to reject (p=%v)", res.PValue)
	}
	if _, err := FisherCombine(nil, 0.05); err == nil {
		t.Error("empty input should error")
	}
	if _, err := FisherCombine([]float64{0.5}, 0); err == nil {
		t.Error("alpha 0 should error")
	}
	// Zero p-values clamp rather than produce Inf.
	res, err = FisherCombine([]float64{0}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject || math.IsInf(res.Statistic, 1) {
		t.Errorf("clamped zero p-value should reject finitely: %+v", res)
	}
}

func TestFisherUniformCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	rejections := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		ps := make([]float64, 10)
		for j := range ps {
			ps[j] = rng.Float64()
		}
		res, err := FisherCombine(ps, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reject {
			rejections++
		}
	}
	// Should reject ~5% of the time under the null.
	if rejections < 5 || rejections > 50 {
		t.Errorf("Fisher null rejection rate %d/%d, want ~5%%", rejections, trials)
	}
}

func TestNormalCDFDegenerateSigma(t *testing.T) {
	if NormalCDF(-1, 0, 0) != 0 || NormalCDF(1, 0, 0) != 1 {
		t.Error("zero-sigma CDF should be a step at mu")
	}
	if NormalCDF(0, 0, -1) != 1 {
		t.Error("negative sigma treated as degenerate, x >= mu -> 1")
	}
}

func TestChiSquareCDFExported(t *testing.T) {
	if got := ChiSquareCDF(3.841458821, 1); !almostEqual(got, 0.95, 1e-6) {
		t.Errorf("ChiSquareCDF = %v, want 0.95", got)
	}
	if ChiSquareCDF(-1, 1) != 0 || ChiSquareCDF(1, 0) != 0 {
		t.Error("out-of-domain inputs should yield 0")
	}
}
