package dtw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSeries(n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	v := -75.0
	for i := range out {
		v += 1.5 * rng.NormFloat64()
		out[i] = v
	}
	return out
}

func TestReduceByHalf(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want []float64
	}{
		{"even", []float64{1, 3, 5, 7}, []float64{2, 6}},
		{"odd", []float64{1, 3, 5}, []float64{2, 5}},
		{"single", []float64{4}, []float64{4}},
		{"pair", []float64{2, 4}, []float64{3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := reduceByHalf(tt.in)
			if len(got) != len(tt.want) {
				t.Fatalf("len = %d, want %d", len(got), len(tt.want))
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Errorf("got %v, want %v", got, tt.want)
					break
				}
			}
		})
	}
}

func TestFastDTWUpperBoundsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		x := randomSeries(20+rng.Intn(180), rng)
		y := randomSeries(20+rng.Intn(180), rng)
		exact, err := Distance(x, y)
		if err != nil {
			t.Fatal(err)
		}
		for _, radius := range []int{0, 1, 2, 5} {
			fast, path, err := fastDTW(x, y, radius)
			if err != nil {
				t.Fatalf("radius %d: %v", radius, err)
			}
			if fast < exact-1e-9 {
				t.Fatalf("radius %d: FastDTW %v below exact %v", radius, fast, exact)
			}
			if err := path.Validate(len(x), len(y)); err != nil {
				t.Fatalf("radius %d: invalid path: %v", radius, err)
			}
			if pc := pathCost(path, x, y); math.Abs(pc-fast) > 1e-9 {
				t.Fatalf("radius %d: path cost %v != distance %v", radius, pc, fast)
			}
		}
	}
}

// TestFastDTWAccuracy checks the accuracy behaviour from Salvador & Chan
// that the paper relies on: error shrinks monotonically with the radius,
// and is small for moderate radii. Independent random walks are the
// hardest case (optimal paths wander far from the diagonal); Sybil-pair
// comparisons, whose series are near-identical, are covered by
// TestFastDTWSimilarSeriesNearExact below.
func TestFastDTWAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const trials = 40
	radii := []int{1, 2, 4, 8, 16}
	sums := make(map[int]float64, len(radii))
	for trial := 0; trial < trials; trial++ {
		x := randomSeries(200, rng)
		y := randomSeries(200, rng)
		exact, err := Distance(x, y)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range radii {
			fast, err := FastDistance(x, y, r)
			if err != nil {
				t.Fatal(err)
			}
			if exact > 0 {
				sums[r] += (fast - exact) / exact
			}
		}
	}
	prev := math.Inf(1)
	for _, r := range radii {
		mean := sums[r] / trials
		if mean > prev+0.01 {
			t.Errorf("radius %d error %.3f worse than smaller radius (%.3f)", r, mean, prev)
		}
		prev = mean
	}
	if worst := sums[16] / trials; worst > 0.05 {
		t.Errorf("mean FastDTW(r=16) relative error = %.3f, want <= 0.05", worst)
	}
	if r1 := sums[1] / trials; r1 > 0.25 {
		t.Errorf("mean FastDTW(r=1) relative error = %.3f, want <= 0.25", r1)
	}
}

// TestFastDTWSimilarSeriesNearExact exercises the regime the detector
// actually lives in: two RSSI series of the same physical transmitter
// (differing by noise and packet loss) have warp paths hugging the
// diagonal, so the detector's default radius (4) recovers the exact
// distance essentially always, matching the paper's "~1% loss" claim.
func TestFastDTWSimilarSeriesNearExact(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const trials = 40
	sums := map[int]float64{}
	for trial := 0; trial < trials; trial++ {
		base := randomSeries(200, rng)
		x := make([]float64, len(base))
		y := make([]float64, 0, len(base))
		for i, v := range base {
			x[i] = v + 0.5*rng.NormFloat64()
			if rng.Float64() > 0.1 { // 10% packet loss on one receiver
				y = append(y, v+0.5*rng.NormFloat64())
			}
		}
		exact, err := Distance(x, y)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []int{1, 4} {
			fast, err := FastDistance(x, y, r)
			if err != nil {
				t.Fatal(err)
			}
			if exact > 0 {
				sums[r] += (fast - exact) / exact
			}
		}
	}
	if mean := sums[4] / trials; mean > 0.01 {
		t.Errorf("similar-series FastDTW(r=4) relative error = %.4f, want <= 0.01", mean)
	}
	if mean := sums[1] / trials; mean > 0.25 {
		t.Errorf("similar-series FastDTW(r=1) relative error = %.4f, want <= 0.25", mean)
	}
}

func TestFastDTWIdenticalSeriesIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	x := randomSeries(500, rng)
	d, err := FastDistance(x, x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("FastDistance(x,x) = %v, want 0", d)
	}
}

func TestFastDTWSmallSeriesExact(t *testing.T) {
	// Series at or below radius+2 fall back to exact DTW.
	x := []float64{1, 1, 4, 1, 1}
	y := []float64{2, 2, 2, 4, 2, 2}
	d, err := FastDistance(x, y, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d != 5 {
		t.Errorf("FastDistance small-series = %v, want exact 5", d)
	}
}

func TestFastDTWUnequalLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	x := randomSeries(200, rng)
	y := randomSeries(137, rng) // simulates packet loss
	exact, err := Distance(x, y)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := FastDistance(x, y, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fast < exact-1e-9 {
		t.Errorf("FastDTW %v below exact %v", fast, exact)
	}
	if exact > 0 && (fast-exact)/exact > 0.25 {
		t.Errorf("FastDTW relative error %.3f too large", (fast-exact)/exact)
	}
}

func TestFastDTWSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randomSeries(10+rng.Intn(100), rng)
		y := randomSeries(10+rng.Intn(100), rng)
		d1, err1 := FastDistance(x, y, 1)
		d2, err2 := FastDistance(y, x, 1)
		if err1 != nil || err2 != nil {
			return false
		}
		// FastDTW is not perfectly symmetric (coarsening differs), but
		// must agree within the approximation band.
		if d1 == 0 && d2 == 0 {
			return true
		}
		return math.Abs(d1-d2)/math.Max(d1, d2) < 0.3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSakoeChibaWindow(t *testing.T) {
	w := sakoeChiba(10, 10, 1)
	if err := w.validate(10, 10); err != nil {
		t.Fatalf("invalid window: %v", err)
	}
	if !w.contains(0, 0) || !w.contains(9, 9) {
		t.Error("band must contain corners")
	}
	if w.contains(0, 5) {
		t.Error("radius-1 band should exclude (0,5)")
	}
	if w.size() >= 100 {
		t.Errorf("band size %d should be well below full 100", w.size())
	}
}

func TestSakoeChibaNonSquare(t *testing.T) {
	w := sakoeChiba(5, 20, 2)
	if err := w.validate(5, 20); err != nil {
		t.Fatalf("invalid window: %v", err)
	}
}

func TestFullWindowEqualsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	x := randomSeries(30, rng)
	y := randomSeries(25, rng)
	exact, err := Distance(x, y)
	if err != nil {
		t.Fatal(err)
	}
	constrained, _, err := NewWorkspace().constrained(x, y, fullWindow(len(x), len(y)), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact-constrained) > 1e-9 {
		t.Errorf("full-window constrained %v != exact %v", constrained, exact)
	}
}

func TestConstrainedDistanceUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 20; trial++ {
		x := randomSeries(40, rng)
		y := randomSeries(40, rng)
		exact, err := Distance(x, y)
		if err != nil {
			t.Fatal(err)
		}
		band, _, err := NewWorkspace().constrained(x, y, sakoeChiba(40, 40, 3), false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if band < exact-1e-9 {
			t.Fatalf("banded distance %v below exact %v", band, exact)
		}
	}
}

func TestConstrainedDistanceBadWindow(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{1, 2, 3}
	ws := NewWorkspace()
	w := &window{lo: []int{0, 2, 2}, hi: []int{0, 2, 2}}
	if _, _, err := ws.constrained(x, y, w, false, nil); err == nil {
		t.Error("disconnected window should error")
	}
	wrongRows := &window{lo: []int{0}, hi: []int{2}}
	if _, _, err := ws.constrained(x, y, wrongRows, false, nil); err == nil {
		t.Error("row-count mismatch should error")
	}
}

func TestPathValidate(t *testing.T) {
	good := Path{{0, 0}, {1, 1}, {1, 2}, {2, 2}}
	if err := good.Validate(3, 3); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
	tests := []struct {
		name string
		p    Path
	}{
		{"empty", Path{}},
		{"bad start", Path{{1, 0}, {2, 2}}},
		{"bad end", Path{{0, 0}, {1, 1}}},
		{"jump", Path{{0, 0}, {2, 2}}},
		{"stall", Path{{0, 0}, {0, 0}, {2, 2}}},
		{"backwards", Path{{0, 0}, {1, 1}, {0, 2}, {2, 2}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(3, 3); err == nil {
				t.Errorf("path %v should be invalid", tt.p)
			}
		})
	}
}
