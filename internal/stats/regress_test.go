package stats

import (
	"math/rand"
	"testing"
)

func TestOLSExactLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x - 7
	}
	fit, err := OLS(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 3, 1e-12) || !almostEqual(fit.Intercept, -7, 1e-12) {
		t.Errorf("fit = %+v, want slope 3, intercept -7", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestOLSNoisyLineRecoversParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 5000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 100
		ys[i] = -2.5*xs[i] + 40 + 3*rng.NormFloat64()
	}
	fit, err := OLS(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, -2.5, 0.05) {
		t.Errorf("slope = %v, want ~-2.5", fit.Slope)
	}
	if !almostEqual(fit.Intercept, 40, 2) {
		t.Errorf("intercept = %v, want ~40", fit.Intercept)
	}
	if !almostEqual(fit.ResidualStd, 3, 0.3) {
		t.Errorf("residual std = %v, want ~3", fit.ResidualStd)
	}
}

func TestOLSErrors(t *testing.T) {
	if _, err := OLS([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := OLS([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should error")
	}
	if _, err := OLS([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("zero x-variance should error")
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	h, err := NewHistogram(xs, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range h.Counts {
		if c != 2 {
			t.Errorf("bin %d count = %d, want 2", i, c)
		}
	}
	if h.Total != 10 {
		t.Errorf("total = %d, want 10", h.Total)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h, err := NewHistogram([]float64{-95, -95, -95}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Counts[0] != 3 {
		t.Errorf("degenerate histogram counts = %v", h.Counts)
	}
	if _, err := NewHistogram(nil, 4); err == nil {
		t.Error("empty sample should error")
	}
	if _, err := NewHistogram([]float64{1}, 0); err == nil {
		t.Error("zero bins should error")
	}
}

func TestHistogramRender(t *testing.T) {
	h, err := NewHistogram([]float64{1, 2, 2, 3, 3, 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	out := h.Render(10)
	if out == "" {
		t.Error("render produced no output")
	}
	if (&Histogram{Counts: []int{1}, Total: 1}).Render(0) == "" {
		t.Error("render with non-positive width should default")
	}
}
