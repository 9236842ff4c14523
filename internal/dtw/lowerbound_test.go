package dtw

import (
	"math"
	"math/rand"
	"testing"
)

// TestEnvelopeInto pins the sliding-extrema semantics on a hand-checked
// series and verifies buffer reuse leaves values bit-identical.
func TestEnvelopeInto(t *testing.T) {
	ws := NewWorkspace()
	x := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	lo, hi, err := ws.EnvelopeInto(nil, nil, x, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantLo := []float64{1, 1, 1, 1, 1, 1, 2, 2}
	wantHi := []float64{4, 4, 5, 9, 9, 9, 9, 9}
	for i := range x {
		if lo[i] != wantLo[i] || hi[i] != wantHi[i] {
			t.Fatalf("envelope[%d] = [%v,%v], want [%v,%v]", i, lo[i], hi[i], wantLo[i], wantHi[i])
		}
		if lo[i] > x[i] || hi[i] < x[i] {
			t.Fatalf("envelope[%d] = [%v,%v] excludes the point %v", i, lo[i], hi[i], x[i])
		}
	}
	// Radius 0 is the series itself; negative clamps to 0.
	for _, r := range []int{0, -3} {
		lo, hi, err = ws.EnvelopeInto(lo, hi, x, r)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if lo[i] != x[i] || hi[i] != x[i] {
				t.Fatalf("radius %d envelope[%d] = [%v,%v], want the point %v", r, i, lo[i], hi[i], x[i])
			}
		}
	}
	// A radius past the series length is the global min/max everywhere.
	lo, hi, err = ws.EnvelopeInto(lo, hi, x, len(x)+5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if lo[i] != 1 || hi[i] != 9 {
			t.Fatalf("full envelope[%d] = [%v,%v], want [1,9]", i, lo[i], hi[i])
		}
	}
	if _, _, err := ws.EnvelopeInto(nil, nil, nil, 1); err == nil {
		t.Error("empty series should error")
	}
}

// TestEnvelopeMatchesBruteForce cross-checks the deque pass against the
// quadratic definition across random series and radii.
func TestEnvelopeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ws := NewWorkspace()
	var lo, hi []float64
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		r := rng.Intn(12)
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Round(rng.NormFloat64()*8) / 4
		}
		var err error
		lo, hi, err = ws.EnvelopeInto(lo, hi, x, r)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			wantLo, wantHi := x[i], x[i]
			for j := i - r; j <= i+r; j++ {
				if j < 0 || j >= n {
					continue
				}
				if x[j] < wantLo {
					wantLo = x[j]
				}
				if x[j] > wantHi {
					wantHi = x[j]
				}
			}
			if lo[i] != wantLo || hi[i] != wantHi {
				t.Fatalf("trial %d: envelope[%d] = [%v,%v], want [%v,%v] (n=%d r=%d)",
					trial, i, lo[i], hi[i], wantLo, wantHi, n, r)
			}
		}
	}
}

// lbEnvelopeRadius is the admissible envelope radius for comparing a
// length-n series against a length-m series under a Sakoe-Chiba band:
// the band radius, the center drift bound |n-m|+1, and one more column
// of makeContiguous connectivity slack.
func lbEnvelopeRadius(bandRadius, n, m int) int {
	d := n - m
	if d < 0 {
		d = -d
	}
	return bandRadius + d + 2
}

// TestLBKeoghAdmissible: the bound never exceeds the banded distance it
// prunes for (band-matched envelope) nor the exact/FastDTW distances
// (full envelope), across random ragged series.
func TestLBKeoghAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	ws := NewWorkspace()
	var loX, hiX, loY, hiY []float64
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
		envR := lbEnvelopeRadius(radius, n, m)
		var err error
		loY, hiY, err = ws.EnvelopeInto(loY, hiY, y, envR)
		if err != nil {
			t.Fatal(err)
		}
		loX, hiX, err = ws.EnvelopeInto(loX, hiX, x, envR)
		if err != nil {
			t.Fatal(err)
		}
		lb := LBKeogh(x, loY, hiY)
		if lb2 := LBKeogh(y, loX, hiX); lb2 > lb {
			lb = lb2
		}
		banded, err := ws.BandedDistance(x, y, radius, nil)
		if err != nil {
			t.Fatal(err)
		}
		if lb > banded {
			t.Fatalf("trial %d: LB %v > banded %v (n=%d m=%d r=%d)", trial, lb, banded, n, m, radius)
		}
		ub, err := BandPathUpperBound(x, y, radius)
		if err != nil {
			t.Fatal(err)
		}
		if ub < banded {
			t.Fatalf("trial %d: upper bound %v < banded %v (n=%d m=%d r=%d)", trial, ub, banded, n, m, radius)
		}
		// Full envelopes lower-bound the unconstrained variants too.
		loY, hiY, err = ws.EnvelopeInto(loY, hiY, y, m)
		if err != nil {
			t.Fatal(err)
		}
		full := LBKeogh(x, loY, hiY)
		exact, err := ws.Distance(x, y, nil)
		if err != nil {
			t.Fatal(err)
		}
		if full > exact {
			t.Fatalf("trial %d: full-envelope LB %v > exact %v", trial, full, exact)
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
