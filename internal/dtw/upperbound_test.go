package dtw

import (
	"math"
	"math/rand"
	"testing"
)

// TestBandPathUpperBoundAdmissible: the staircase upper bound never
// undercuts the banded distance, across random ragged series.
func TestBandPathUpperBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	ws := NewWorkspace()
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(50)
		m := 1 + rng.Intn(50)
		radius := rng.Intn(8)
		x := make([]float64, n)
		y := make([]float64, m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		banded, err := ws.BandedDistance(x, y, radius)
		if err != nil {
			t.Fatal(err)
		}
		ub, err := BandPathUpperBound(x, y, radius)
		if err != nil {
			t.Fatal(err)
		}
		if ub < banded {
			t.Fatalf("trial %d: upper bound %v < banded %v (n=%d m=%d r=%d)", trial, ub, banded, n, m, radius)
		}
	}
}

// TestBandPathUpperBoundEqualLengths: for equal lengths the staircase
// degenerates to the no-warp diagonal, i.e. squaredError.
func TestBandPathUpperBoundEqualLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		ub, err := BandPathUpperBound(x, y, rng.Intn(6)-1)
		if err != nil {
			t.Fatal(err)
		}
		if eu := squaredError(x, y); ub != eu {
			t.Fatalf("trial %d: staircase %v != euclidean %v at equal lengths", trial, ub, eu)
		}
	}
	if _, err := BandPathUpperBound(nil, []float64{1}, 2); err == nil {
		t.Error("empty series should error")
	}
}

// TestBandedKernelBitIdentical pins the rolling-row banded kernel: it
// must match refBanded, the branchy row-major kernel it replaced, bit for
// bit on every cell pattern random ragged series produce.
func TestBandedKernelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	ws := NewWorkspace()
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(40)
		m := 1 + rng.Intn(40)
		radius := rng.Intn(6)
		x := make([]float64, n)
		y := make([]float64, m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		fast, err := ws.BandedDistance(x, y, radius)
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := refBanded(x, y, radius, 1, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(fast) != math.Float64bits(ref) {
			t.Fatalf("trial %d: kernel %x != reference %x (n=%d m=%d r=%d)", trial, fast, ref, n, m, radius)
		}
	}
}
