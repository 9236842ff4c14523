package stats

import "math"

// sqrt is a local alias so regression code reads without the math import.
func sqrt(x float64) float64 { return math.Sqrt(x) }

// NormalCDF returns P(X <= x) for X ~ N(mu, sigma^2). A non-positive sigma
// degenerates to a step function at mu.
func NormalCDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		if x < mu {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc(-(x-mu)/(sigma*math.Sqrt2))
}

// NormalQuantile returns the q-quantile of the standard normal distribution
// using the Acklam rational approximation (relative error < 1.15e-9).
// q outside (0,1) returns +-Inf.
func NormalQuantile(q float64) float64 {
	if q <= 0 {
		return math.Inf(-1)
	}
	if q >= 1 {
		return math.Inf(1)
	}
	// Coefficients for the Acklam approximation.
	a := [...]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [...]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	c := [...]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [...]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}
	const plow = 0.02425
	switch {
	case q < plow:
		u := math.Sqrt(-2 * math.Log(q))
		return (((((c[0]*u+c[1])*u+c[2])*u+c[3])*u+c[4])*u + c[5]) /
			((((d[0]*u+d[1])*u+d[2])*u+d[3])*u + 1)
	case q > 1-plow:
		u := math.Sqrt(-2 * math.Log(1-q))
		return -(((((c[0]*u+c[1])*u+c[2])*u+c[3])*u+c[4])*u + c[5]) /
			((((d[0]*u+d[1])*u+d[2])*u+d[3])*u + 1)
	default:
		u := q - 0.5
		t := u * u
		return (((((a[0]*t+a[1])*t+a[2])*t+a[3])*t+a[4])*t + a[5]) * u /
			(((((b[0]*t+b[1])*t+b[2])*t+b[3])*t+b[4])*t + 1)
	}
}

// chiSquareCDF returns P(X <= x) for a chi-square distribution with k
// degrees of freedom, via the regularized lower incomplete gamma function.
func chiSquareCDF(x float64, k int) float64 {
	if x <= 0 || k <= 0 {
		return 0
	}
	return lowerIncompleteGammaRegularized(float64(k)/2, x/2)
}

// lowerIncompleteGammaRegularized computes P(a, x) = gamma(a,x)/Gamma(a)
// with the usual series/continued-fraction split (Numerical Recipes form).
func lowerIncompleteGammaRegularized(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	// x < 0 already returned, so <= catches exactly x == 0 while a NaN
	// x falls through and propagates.
	if x <= 0 {
		return 0
	}
	lg, _ := math.Lgamma(a)
	if x < a+1 {
		// Series expansion.
		ap := a
		sum := 1.0 / a
		del := sum
		for i := 0; i < 500; i++ {
			ap++
			del *= x / ap
			sum += del
			if math.Abs(del) < math.Abs(sum)*1e-14 {
				break
			}
		}
		return sum * math.Exp(-x+a*math.Log(x)-lg)
	}
	// Continued fraction for Q(a,x), then P = 1-Q.
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-14 {
			break
		}
	}
	q := math.Exp(-x+a*math.Log(x)-lg) * h
	return 1 - q
}
