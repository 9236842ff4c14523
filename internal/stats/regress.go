package stats

import "errors"

// LinearFit holds the result of an ordinary-least-squares fit of
// y = Slope*x + Intercept.
type LinearFit struct {
	Slope     float64
	Intercept float64
	// R2 is the coefficient of determination of the fit.
	R2 float64
	// ResidualStd is the standard deviation of the fit residuals; the
	// dual-slope model fitter uses it to recover the shadowing sigma of
	// each segment (Table IV's X_sigma columns).
	ResidualStd float64
	// N is the number of points fitted.
	N int
}

// OLS fits y = a*x + b by ordinary least squares. It requires len(xs) ==
// len(ys) and at least two points with non-zero x variance.
func OLS(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, errors.New("stats: OLS length mismatch")
	}
	if len(xs) < 2 {
		return LinearFit{}, errors.New("stats: OLS needs at least two points")
	}
	mx := Mean(xs)
	my := Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	// sxx is a sum of squares, so <= is an exact zero-variance test
	// that is also NaN-safe.
	if sxx <= 0 {
		return LinearFit{}, errors.New("stats: OLS degenerate x (zero variance)")
	}
	slope := sxy / sxx
	intercept := my - slope*mx

	var ssRes, ssTot float64
	for i := range xs {
		pred := slope*xs[i] + intercept
		r := ys[i] - pred
		ssRes += r * r
		dy := ys[i] - my
		ssTot += dy * dy
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	fit := LinearFit{
		Slope:     slope,
		Intercept: intercept,
		R2:        r2,
		N:         len(xs),
	}
	if len(xs) > 2 {
		fit.ResidualStd = sqrt(ssRes / float64(len(xs)-2))
	}
	return fit, nil
}

// Predict evaluates the fitted line at x.
func (f LinearFit) Predict(x float64) float64 {
	return f.Slope*x + f.Intercept
}
