package timeseries

import (
	"errors"
	"math"
	"testing"
	"time"
)

// Empty and single-sample windows are routine in streaming use: a
// detection round fires the moment a fresh identity appears, so the
// window operations must degrade to well-defined values rather than
// panic or emit NaN.
func TestEmptyWindowBehavior(t *testing.T) {
	full := FromValues([]float64{-70, -71, -72}, time.Second)
	for name, w := range map[string]*Series{
		"inverted bounds": full.Window(2*time.Second, time.Second),
		"empty range":     full.Window(time.Second, time.Second),
		"past the end":    full.Window(time.Minute, 2*time.Minute),
		"view inverted":   full.WindowViewInto(2*time.Second, time.Second, &Series{}),
		"of empty series": New(0).Window(0, time.Minute),
	} {
		if got := w.Len(); got != 0 {
			t.Errorf("%s: Len = %d, want 0", name, got)
		}
		if got := w.Mean(); got != 0 || math.IsNaN(got) {
			t.Errorf("%s: Mean = %v, want 0", name, got)
		}
		if got := w.StdDev(); got != 0 || math.IsNaN(got) {
			t.Errorf("%s: StdDev = %v, want 0", name, got)
		}
		if _, err := w.ZScoreNormalize(); !errors.Is(err, ErrTooShort) {
			t.Errorf("%s: ZScoreNormalize err = %v, want ErrTooShort", name, err)
		}
	}
}

func TestSingleSampleSeries(t *testing.T) {
	s := FromValues([]float64{-70}, time.Second)
	if got := s.Mean(); got != -70 {
		t.Errorf("Mean = %v, want -70", got)
	}
	if got := s.StdDev(); got != 0 {
		t.Errorf("StdDev = %v, want 0", got)
	}
	if _, err := s.ZScoreNormalize(); !errors.Is(err, ErrTooShort) {
		t.Errorf("ZScoreNormalize err = %v, want ErrTooShort", err)
	}
	if _, err := s.AppendZScored(nil); !errors.Is(err, ErrTooShort) {
		t.Errorf("AppendZScored err = %v, want ErrTooShort", err)
	}
}

// AppendZScored must agree with ZScoreNormalize on the zero-variance
// case: a constant series carries no shape, so both paths emit exact
// zeros — never NaN from the 0/0 the naive formula would produce.
func TestAppendZScoredConstantSeries(t *testing.T) {
	s := FromValues([]float64{-64, -64, -64, -64}, time.Second)
	vals, err := s.AppendZScored(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != 0 {
			t.Errorf("zscore[%d] = %v, want 0", i, v)
		}
	}
	norm, err := s.ZScoreNormalize()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < norm.Len(); i++ {
		if got := norm.At(i).RSSI; got != vals[i] {
			t.Errorf("ZScoreNormalize[%d] = %v disagrees with AppendZScored %v", i, got, vals[i])
		}
	}
}

func TestTrimBeforeEverythingThenAppend(t *testing.T) {
	s := FromValues([]float64{-70, -71, -72}, time.Second)
	s.TrimBefore(time.Minute)
	if got := s.Len(); got != 0 {
		t.Fatalf("Len after full trim = %d, want 0", got)
	}
	if err := s.Append(0, -65); err != nil {
		t.Fatalf("append to fully trimmed series: %v", err)
	}
	if s.Len() != 1 || s.At(0).RSSI != -65 {
		t.Errorf("series after trim+append = len %d", s.Len())
	}
}

func TestMinMaxNormalizeRejectsNonFinite(t *testing.T) {
	for _, bad := range [][]float64{
		{1, math.NaN(), 3},
		{math.Inf(1), 2},
		{1, math.Inf(-1)},
	} {
		if _, err := minMaxNormalize(bad); err == nil {
			t.Errorf("minMaxNormalize(%v) accepted non-finite input", bad)
		}
	}
	if _, err := minMaxNormalize(nil); !errors.Is(err, ErrEmptyBatch) {
		t.Errorf("minMaxNormalize(empty) err = %v, want ErrEmptyBatch", err)
	}
	if _, err := MinMaxNormalizeInto(make([]float64, 2), []float64{1, 2, 3}); err == nil {
		t.Error("MinMaxNormalizeInto accepted mismatched dst length")
	}
}
