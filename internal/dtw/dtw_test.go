package dtw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteForce computes the DTW distance by exhaustive memoized recursion,
// independent of the production DP, for cross-checking.
func bruteForce(x, y []float64) float64 {
	cost := func(a, b float64) float64 {
		d := a - b
		return float64(d * d)
	}
	memo := make(map[[2]int]float64)
	var rec func(i, j int) float64
	rec = func(i, j int) float64 {
		if i < 0 || j < 0 {
			return math.Inf(1)
		}
		if i == 0 && j == 0 {
			return cost(x[0], y[0])
		}
		key := [2]int{i, j}
		if v, ok := memo[key]; ok {
			return v
		}
		best := math.Min(rec(i-1, j), math.Min(rec(i, j-1), rec(i-1, j-1)))
		v := best + cost(x[i], y[j])
		memo[key] = v
		return v
	}
	return rec(len(x)-1, len(y)-1)
}

// TestDTWPaperExample exercises the worked example of the paper's
// Figure 9: X={1,1,4,1,1}, Y={2,2,2,4,2,2}. Exact evaluation of the
// paper's own Equations 3-6 (squared pointwise cost) yields 5; the figure
// caption states 9, which does not correspond to any standard step pattern
// we could reproduce (see EXPERIMENTS.md). We pin the mathematically
// correct value and cross-check it against brute force.
func TestDTWPaperExample(t *testing.T) {
	x := []float64{1, 1, 4, 1, 1}
	y := []float64{2, 2, 2, 4, 2, 2}
	got, err := Distance(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteForce(x, y); got != want {
		t.Errorf("Distance = %v, brute force = %v", got, want)
	}
	if got != 5 {
		t.Errorf("Distance = %v, want 5 (exact evaluation of Eqs 3-6)", got)
	}
}

func TestDistanceIdenticalSeriesIsZero(t *testing.T) {
	x := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	d, err := Distance(x, x)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("Distance(x,x) = %v, want 0", d)
	}
}

func TestDistanceSingletons(t *testing.T) {
	d, err := Distance([]float64{2}, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if d != 9 {
		t.Errorf("Distance([2],[5]) = %v, want 9", d)
	}
	d, err = Distance([]float64{2}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if d != 27 {
		t.Errorf("Distance([2],[5,5,5]) = %v, want 27", d)
	}
}

func TestDistanceEmptyErrors(t *testing.T) {
	if _, err := Distance(nil, []float64{1}); err != ErrEmptySeries {
		t.Errorf("err = %v, want ErrEmptySeries", err)
	}
	if _, err := Distance([]float64{1}, nil); err != ErrEmptySeries {
		t.Errorf("err = %v, want ErrEmptySeries", err)
	}
	if _, _, err := DistanceWithPath(nil, nil); err != ErrEmptySeries {
		t.Errorf("err = %v, want ErrEmptySeries", err)
	}
	if _, _, err := fastDTW(nil, []float64{1}, 1); err != ErrEmptySeries {
		t.Errorf("err = %v, want ErrEmptySeries", err)
	}
	if _, err := FastDistance([]float64{1}, nil, 1); err != ErrEmptySeries {
		t.Errorf("err = %v, want ErrEmptySeries", err)
	}
}

func TestDistanceWithPathMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		m := 1 + rng.Intn(40)
		x := randomSeries(n, rng)
		y := randomSeries(m, rng)
		d1, err := Distance(x, y)
		if err != nil {
			t.Fatal(err)
		}
		d2, path, err := DistanceWithPath(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(d1-d2) > 1e-9 {
			t.Fatalf("Distance=%v DistanceWithPath=%v", d1, d2)
		}
		if err := path.Validate(n, m); err != nil {
			t.Fatalf("invalid path: %v", err)
		}
		if pc := pathCost(path, x, y); math.Abs(pc-d1) > 1e-9 {
			t.Fatalf("path cost %v != distance %v", pc, d1)
		}
	}
}

func TestDistanceMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 50; trial++ {
		x := randomSeries(1+rng.Intn(12), rng)
		y := randomSeries(1+rng.Intn(12), rng)
		got, err := Distance(x, y)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(x, y)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("Distance=%v bruteForce=%v x=%v y=%v", got, want, x, y)
		}
	}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	f := func(seedX, seedY int64) bool {
		rx := rand.New(rand.NewSource(seedX))
		ry := rand.New(rand.NewSource(seedY))
		x := randomSeries(1+rx.Intn(30), rx)
		y := randomSeries(1+ry.Intn(30), ry)
		d1, err1 := Distance(x, y)
		d2, err2 := Distance(y, x)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(d1-d2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDistanceNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randomSeries(1+rng.Intn(30), rng)
		y := randomSeries(1+rng.Intn(30), rng)
		d, err := Distance(x, y)
		return err == nil && d >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestDistanceTimeShiftTolerance verifies the qualitative property the
// paper uses DTW for: a temporally shifted copy of a series stays much
// closer under DTW than under pointwise (Euclidean-style) comparison.
func TestDistanceTimeShiftTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 100
	base := make([]float64, n+5)
	v := 0.0
	for i := range base {
		v += rng.NormFloat64()
		base[i] = v
	}
	x := base[:n]
	y := base[3 : n+3] // shifted by 3 samples
	dtwDist, err := Distance(x, y)
	if err != nil {
		t.Fatal(err)
	}
	var euclid float64
	for i := range x {
		d := x[i] - y[i]
		euclid += d * d
	}
	if dtwDist >= euclid/4 {
		t.Errorf("DTW (%v) should absorb a 3-sample shift far better than pointwise (%v)", dtwDist, euclid)
	}
}

// squaredError is the pointwise squared-error sum of two equal-length
// series: the no-warp baseline DTW is measured against (the paper's
// Equation 2 with the squared cost of Equation 3), which Section IV-B
// rejects because packet loss makes VANET series ragged.
func squaredError(x, y []float64) float64 {
	var sum float64
	for i := range x {
		d := x[i] - y[i]
		sum += float64(d * d)
	}
	return sum
}

// TestDTWBeatsEuclideanUnderLoss pins the paper's Section IV-B argument:
// with packet loss, pointwise comparison of (resampled) series from the
// same transmitter degrades much faster than DTW on the ragged series.
func TestDTWBeatsEuclideanUnderLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	base := randomSeries(200, rng)
	// Two observations of the same transmission with independent loss.
	makeLossy := func(p float64) []float64 {
		out := make([]float64, 0, len(base))
		for _, v := range base {
			if rng.Float64() >= p {
				out = append(out, v+0.3*rng.NormFloat64())
			}
		}
		return out
	}
	a := makeLossy(0.15)
	b := makeLossy(0.15)
	dtwDist, err := Distance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	dtwDist /= float64(len(a)) // per-sample
	// Euclidean needs equal lengths: truncate to the shorter (a common
	// naive alignment).
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	euclid := squaredError(a[:n], b[:n]) / float64(n)
	if dtwDist*5 >= euclid {
		t.Errorf("DTW per-sample %v should be far below truncated-Euclidean %v under loss",
			dtwDist, euclid)
	}
}
