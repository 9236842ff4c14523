package dtw

import (
	"math"
	"math/rand"
	"testing"
)

// abandonRandSeries draws a random-walk series, the same shape the
// banded-kernel tests use: adjacent samples are correlated, so warping
// has structure to exploit.
func abandonRandSeries(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	v := rng.Float64() * 10
	for i := range s {
		v += rng.NormFloat64()
		s[i] = v
	}
	return s
}

// TestBandedDistanceAbandonExactBitIdentical checks that whenever the
// exact distance passes the cutoff — because the cutoff is infinite, sits
// above the distance or exactly at its normalized value — the result is
// bit-identical to BandedDistance: every cell a path of cost at most the
// limit can use is computed from the same values in the same order.
func TestBandedDistanceAbandonExactBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	ws := NewWorkspace()
	ws2 := NewWorkspace()
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(60)
		m := 2 + rng.Intn(60)
		x := abandonRandSeries(rng, n)
		y := abandonRandSeries(rng, m)
		radius := rng.Intn(12)
		norm := float64(max(n, m))
		want, err := ws2.BandedDistance(x, y, radius)
		if err != nil {
			t.Fatal(err)
		}
		for _, cutoff := range []float64{math.Inf(1), math.NaN(), want/norm + 1, want / norm} {
			got, abandoned, err := ws.BandedDistanceAbandon(x, y, radius, norm, cutoff)
			if err != nil {
				t.Fatal(err)
			}
			if abandoned {
				t.Fatalf("trial %d: abandoned under cutoff %v although the exact normalized distance is %v",
					trial, cutoff, want/norm)
			}
			if got != want {
				t.Fatalf("trial %d: completed scan returned %v, BandedDistance %v", trial, got, want)
			}
		}
	}
}

// TestBandedDistanceAbandonAdmissible checks the abandon contract under
// cutoffs straddling the exact normalized distance: a pair abandons
// exactly when its exact distance fails the cutoff, and then returns the
// smallest raw value whose normalized value exceeds the cutoff — at most
// the exact distance (an admissible bound), above the cutoff after the
// caller's division, and its predecessor float not. Rerunning on another
// workspace reproduces it bit for bit.
func TestBandedDistanceAbandonAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	ws := NewWorkspace()
	ws2 := NewWorkspace()
	abandons := 0
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		m := 1 + rng.Intn(60)
		x := abandonRandSeries(rng, n)
		y := abandonRandSeries(rng, m)
		radius := rng.Intn(12)
		norm := float64(max(n, m))
		exact, err := ws2.BandedDistance(x, y, radius)
		if err != nil {
			t.Fatal(err)
		}
		cutoff := exact / norm * (0.1 + 1.2*rng.Float64())
		got, abandoned, err := ws.BandedDistanceAbandon(x, y, radius, norm, cutoff)
		if err != nil {
			t.Fatal(err)
		}
		if abandoned != (exact/norm > cutoff) {
			t.Fatalf("trial %d: abandoned %v, but exact %v / %v = %v against cutoff %v",
				trial, abandoned, exact, norm, exact/norm, cutoff)
		}
		if !abandoned {
			if got != exact {
				t.Fatalf("trial %d: completed scan returned %v, BandedDistance %v", trial, got, exact)
			}
			continue
		}
		abandons++
		if got > exact {
			t.Fatalf("trial %d: abandoned bound %v exceeds the exact distance %v", trial, got, exact)
		}
		if !(got/norm > cutoff) || math.Nextafter(got, 0)/norm > cutoff {
			t.Fatalf("trial %d: abandoned with %v, not the smallest raw value whose normalized value exceeds %v",
				trial, got, cutoff)
		}
		again, abandoned2, err := ws2.BandedDistanceAbandon(x, y, radius, norm, cutoff)
		if err != nil {
			t.Fatal(err)
		}
		if !abandoned2 || again != got {
			t.Fatalf("trial %d: rerun returned (%v, %v), want the identical (%v, true)", trial, again, abandoned2, got)
		}
	}
	if abandons == 0 {
		t.Fatal("no trial abandoned; the cutoff distribution no longer exercises the abandon path")
	}
}

// TestRawLimit checks rawLimit against refOver, a plain bisection, where
// the rounded product is far from the limit (subnormal quotients, a zero
// cutoff) as well as on ordinary values, and pins the no-prune cases.
func TestRawLimit(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct{ norm, cutoff float64 }{
		{1, 0}, {160, 0}, {1e300, 0}, {3, math.SmallestNonzeroFloat64}, {7, 1e-310},
		{1e-300, 1e-20}, {170, 0.0123}, {181, 2.5}, {0.3, 0.1}, {3, 1.0 / 3}, {1, math.Copysign(0, -1)},
	} {
		u := rawLimit(tc.norm, tc.cutoff)
		if want := math.Nextafter(refOver(tc.norm, tc.cutoff), 0); math.Float64bits(u) != math.Float64bits(want) {
			t.Errorf("rawLimit(%v, %v) = %v, bisection %v", tc.norm, tc.cutoff, u, want)
		}
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 2000; i++ {
		norm := float64(1 + rng.Intn(200))
		cutoff := rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		if u, want := rawLimit(norm, cutoff), math.Nextafter(refOver(norm, cutoff), 0); u != want {
			t.Fatalf("rawLimit(%v, %v) = %v, bisection %v", norm, cutoff, u, want)
		}
	}
	for _, tc := range []struct{ norm, cutoff float64 }{
		{3, inf}, {3, math.NaN()}, {1e300, 1e300}, {inf, 1},
	} {
		if u := rawLimit(tc.norm, tc.cutoff); !math.IsInf(u, 1) {
			t.Errorf("rawLimit(%v, %v) = %v, want +Inf", tc.norm, tc.cutoff, u)
		}
	}
}

// TestBandedDistanceAbandonValidation pins the argument contract: empty
// series, non-positive or NaN norms and negative cutoffs are rejected
// before any work.
func TestBandedDistanceAbandonValidation(t *testing.T) {
	ws := NewWorkspace()
	x := []float64{1, 2, 3}
	if _, _, err := ws.BandedDistanceAbandon(nil, x, 2, 3, 1); err == nil {
		t.Error("empty x should error")
	}
	if _, _, err := ws.BandedDistanceAbandon(x, nil, 2, 3, 1); err == nil {
		t.Error("empty y should error")
	}
	for _, norm := range []float64{0, -1, math.NaN()} {
		if _, _, err := ws.BandedDistanceAbandon(x, x, 2, norm, 1); err == nil {
			t.Errorf("norm %v should error", norm)
		}
	}
	for _, cutoff := range []float64{-1, math.Inf(-1)} {
		if _, _, err := ws.BandedDistanceAbandon(x, x, 2, 3, cutoff); err == nil {
			t.Errorf("cutoff %v should error", cutoff)
		}
	}
}
