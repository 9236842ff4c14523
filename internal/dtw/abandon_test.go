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
// scan completes — because the cutoff is infinite or simply never
// undercut — the result is bit-identical to BandedDistance: the abandon
// checks are bolted onto the same kernel, never into it.
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
		for _, cutoff := range []float64{math.Inf(1), want/norm + 1} {
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
// cutoffs that do fire: the returned bound never exceeds the exact
// distance (admissibility), its normalized value exceeds the cutoff
// (the reason it fired), and rerunning reproduces it bit for bit (a
// pair's recorded bound must not depend on which workspace ran it).
func TestBandedDistanceAbandonAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	ws := NewWorkspace()
	ws2 := NewWorkspace()
	abandons := 0
	for trial := 0; trial < 200; trial++ {
		n := abandonStride + 2 + rng.Intn(60)
		m := 2 + rng.Intn(60)
		x := abandonRandSeries(rng, n)
		y := abandonRandSeries(rng, m)
		radius := rng.Intn(12)
		norm := float64(max(n, m))
		exact, err := ws2.BandedDistance(x, y, radius)
		if err != nil {
			t.Fatal(err)
		}
		// Cutoffs straddling the exact normalized distance: some fire,
		// some provably cannot.
		cutoff := exact / norm * (0.1 + 1.2*rng.Float64())
		got, abandoned, err := ws.BandedDistanceAbandon(x, y, radius, norm, cutoff)
		if err != nil {
			t.Fatal(err)
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
		if !(got/norm > cutoff) {
			t.Fatalf("trial %d: abandoned with bound %v whose normalized value %v does not exceed the cutoff %v",
				trial, got, got/norm, cutoff)
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

// TestBandedDistanceAbandonValidation pins the argument contract: empty
// series and non-positive or NaN norms are rejected before any work.
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
}
