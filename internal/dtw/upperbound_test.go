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
		banded, err := ws.BandedDistance(x, y, radius, nil)
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
// degenerates to the no-warp diagonal, i.e. EuclideanSquared.
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
		eu, err := EuclideanSquared(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if ub != eu {
			t.Fatalf("trial %d: staircase %v != euclidean %v at equal lengths", trial, ub, eu)
		}
	}
	if _, err := BandPathUpperBound(nil, []float64{1}, 2); err == nil {
		t.Error("empty series should error")
	}
}

// TestBandedKernelBitIdentical pins the rolling-row banded kernel:
// the nil-cost fast path must match the generic SquaredCost loop bit
// for bit on every cell pattern random ragged series produce.
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
		fast, err := ws.BandedDistance(x, y, radius, nil)
		if err != nil {
			t.Fatal(err)
		}
		generic, err := ws.BandedDistance(x, y, radius, SquaredCost)
		if err != nil {
			t.Fatal(err)
		}
		if fast != generic {
			t.Fatalf("trial %d: kernel %x != generic %x (n=%d m=%d r=%d)", trial, fast, generic, n, m, radius)
		}
	}
}

// TestLpDistanceEdgeCases covers the hot-path fixes: p=3 with zero
// deltas (the math.Pow fast path), all-zero series, and the
// preallocated p<1 error.
func TestLpDistanceEdgeCases(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	// Zero-delta series: distance must be exactly 0 for every p.
	for p := 1; p <= 5; p++ {
		d, err := LpDistance(x, x, p)
		if err != nil {
			t.Fatal(err)
		}
		if d != 0 {
			t.Errorf("Lp(x, x, %d) = %v, want 0", p, d)
		}
	}
	// p=3 with a mix of zero and non-zero deltas: the zero fast path
	// must not change the sum (0^3 contributes nothing).
	y := []float64{1, 4, 3, 2}
	d, err := LpDistance(x, y, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(8+8, 1.0/3.0) // |2-4|^3 + |4-2|^3
	if math.Abs(d-want) > 1e-12 {
		t.Errorf("Lp(x, y, 3) = %v, want %v", d, want)
	}
	// The p validation error is a single preallocated value.
	_, err1 := LpDistance(x, y, 0)
	_, err2 := LpDistance(x, y, -2)
	if err1 == nil || err2 == nil {
		t.Fatal("p < 1 should error")
	}
	if err1 != err2 {
		t.Error("p < 1 error should be the shared preallocated value")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := LpDistance(x, y, 0); err == nil {
			t.Fatal("want error")
		}
	})
	if allocs != 0 {
		t.Errorf("rejected LpDistance call allocates %.0f times, want 0", allocs)
	}
}
