package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

const beat = 100 * time.Millisecond

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestFromValuesAndAccessors(t *testing.T) {
	s := FromValues([]float64{-70, -71, -72}, beat)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if s.At(1).RSSI != -71 || s.At(1).T != beat {
		t.Errorf("At(1) = %+v", s.At(1))
	}
	if got := s.Duration(); got != 2*beat {
		t.Errorf("Duration = %v, want %v", got, 2*beat)
	}
	vals := s.Values()
	vals[0] = 0 // must not alias internal storage
	if s.At(0).RSSI != -70 {
		t.Error("Values() aliases internal storage")
	}
	times := s.Times()
	if len(times) != 3 || times[2] != 2*beat {
		t.Errorf("Times = %v", times)
	}
}

func TestAppendMonotonicity(t *testing.T) {
	s := New(4)
	if err := s.Append(0, -70); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(beat, -71); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(beat, -71.5); err != nil {
		t.Errorf("equal timestamps should be allowed: %v", err)
	}
	if err := s.Append(0, -72); err == nil {
		t.Error("backwards timestamp should error")
	}
}

func TestWindow(t *testing.T) {
	s := FromValues([]float64{1, 2, 3, 4, 5}, time.Second)
	w := s.Window(time.Second, 4*time.Second)
	if w.Len() != 3 {
		t.Fatalf("window len = %d, want 3", w.Len())
	}
	if w.At(0).RSSI != 2 || w.At(2).RSSI != 4 {
		t.Errorf("window values = %v", w.Values())
	}
}

func TestCloneIndependence(t *testing.T) {
	s := FromValues([]float64{1, 2}, beat)
	c := s.Clone()
	if err := c.Append(5*beat, 9); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Error("Clone shares storage with original")
	}
}

func TestZScoreNormalize(t *testing.T) {
	s := FromValues([]float64{-80, -70, -60}, beat)
	n, err := s.ZScoreNormalize()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(n.Mean(), 0, 1e-12) {
		t.Errorf("normalized mean = %v, want 0", n.Mean())
	}
	// sigma of normalized series should be 1/3 by construction.
	if !almostEqual(n.StdDev(), 1.0/3, 1e-12) {
		t.Errorf("normalized sigma = %v, want 1/3", n.StdDev())
	}
	// Original untouched.
	if s.At(0).RSSI != -80 {
		t.Error("ZScoreNormalize mutated receiver")
	}
}

func TestZScoreNormalizeConstantSeries(t *testing.T) {
	s := FromValues([]float64{-95, -95, -95}, beat)
	n, err := s.ZScoreNormalize()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range n.Values() {
		if v != 0 {
			t.Errorf("constant series should normalize to zeros, got %v", n.Values())
			break
		}
	}
}

func TestZScoreNormalizeTooShort(t *testing.T) {
	s := FromValues([]float64{-70}, beat)
	if _, err := s.ZScoreNormalize(); err != ErrTooShort {
		t.Errorf("err = %v, want ErrTooShort", err)
	}
}

// TestZScoreShiftInvariance verifies the property the paper relies on:
// a constant TX-power offset (and a gain rescaling) is perfectly removed by
// the enhanced Z-score, so spoofed per-Sybil transmit powers cannot break
// series similarity (Section IV-C step 2).
func TestZScoreShiftInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64, shiftRaw, scaleRaw float64) bool {
		r := rand.New(rand.NewSource(seed))
		s := GenRandomWalk(50, -75, 1.5, -95, -40, beat, r)
		shift := math.Mod(shiftRaw, 20)
		scale := 0.5 + math.Abs(math.Mod(scaleRaw, 2))
		gained := s.Values()
		for i := range gained {
			gained[i] *= scale
		}
		shifted := Shift(FromValues(gained, beat), shift)
		n1, err1 := s.ZScoreNormalize()
		n2, err2 := shifted.ZScoreNormalize()
		if err1 != nil || err2 != nil {
			return false
		}
		v1, v2 := n1.Values(), n2.Values()
		for i := range v1 {
			if !almostEqual(v1[i], v2[i], 1e-9) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestResample(t *testing.T) {
	s := New(3)
	_ = s.Append(0, -70)
	_ = s.Append(250*time.Millisecond, -75)
	_ = s.Append(600*time.Millisecond, -80)
	r, err := s.Resample(100*time.Millisecond, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 10 {
		t.Fatalf("resampled len = %d, want 10", r.Len())
	}
	want := []float64{-70, -70, -70, -75, -75, -75, -80, -80, -80, -80}
	for i, w := range want {
		if r.At(i).RSSI != w {
			t.Errorf("resampled[%d] = %v, want %v", i, r.At(i).RSSI, w)
		}
	}
}

func TestResampleErrors(t *testing.T) {
	s := FromValues([]float64{1}, beat)
	if _, err := s.Resample(0, time.Second); err == nil {
		t.Error("zero period should error")
	}
	if _, err := New(0).Resample(beat, time.Second); err == nil {
		t.Error("empty series should error")
	}
}

func TestMinMaxNormalize(t *testing.T) {
	out, err := MinMaxNormalize([]float64{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.5, 1}
	for i := range want {
		if !almostEqual(out[i], want[i], 1e-12) {
			t.Errorf("out = %v, want %v", out, want)
			break
		}
	}
}

func TestMinMaxNormalizeEdgeCases(t *testing.T) {
	if _, err := MinMaxNormalize(nil); err != ErrEmptyBatch {
		t.Errorf("empty: err = %v, want ErrEmptyBatch", err)
	}
	out, err := MinMaxNormalize([]float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v != 0 {
			t.Errorf("constant batch should map to zeros, got %v", out)
			break
		}
	}
	if _, err := MinMaxNormalize([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN input should error")
	}
	if _, err := MinMaxNormalize([]float64{1, math.Inf(1)}); err == nil {
		t.Error("Inf input should error")
	}
}

func TestMinMaxNormalizeRangeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		out, err := MinMaxNormalize(xs)
		if err != nil {
			return false
		}
		for _, v := range out {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDrop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := GenRandomWalk(1000, -75, 1, -95, -40, beat, rng)
	d := Drop(s, 0.3, rng)
	if d.Len() >= s.Len() {
		t.Errorf("Drop removed nothing: %d vs %d", d.Len(), s.Len())
	}
	// Expect roughly 70% retained.
	if d.Len() < 600 || d.Len() > 800 {
		t.Errorf("Drop(0.3) kept %d of 1000", d.Len())
	}
	none := Drop(s, 0, rng)
	if none.Len() != s.Len() {
		t.Error("Drop(0) should keep everything")
	}
}

func TestShift(t *testing.T) {
	s := FromValues([]float64{-80, -70}, beat)
	sh := Shift(s, 3)
	if sh.At(0).RSSI != -77 || sh.At(1).RSSI != -67 {
		t.Errorf("Shift = %v", sh.Values())
	}
}

func TestGenRandomWalkBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := GenRandomWalk(10000, -75, 5, -95, -40, beat, rng)
	for _, v := range s.Values() {
		if v < -95 || v > -40 {
			t.Fatalf("random walk escaped bounds: %v", v)
		}
	}
}

// TestSeriesAppendAllocs pins the per-sample append at zero allocations
// on a series whose buffer already has room: every beacon a monitor
// ingests goes through it.
func TestSeriesAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	s := New(512)
	at := time.Duration(0)
	for i := 0; i < 8; i++ {
		at += beat
		if err := s.Append(at, -70); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(200, func() {
		at += beat
		if err := s.Append(at, -70.5); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("Series.Append: %v allocs, want 0", got)
	}
}
