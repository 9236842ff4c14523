package core

import (
	"errors"
	"math"
	"testing"
	"time"
)

// A NaN or Inf RSSI is always an upstream bug (a corrupted trace, a
// broken driver), never a measurement; letting one into a series would
// silently poison every DTW distance and Z-score computed from it for
// the rest of the window. The monitor is the last line of defense for
// library users that bypass the wire protocol's own validation.
func TestObserveRejectsNonFiniteRSSI(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := testMonitor(t, 1, 1)
		if err := m.Observe(1, time.Second, bad); !errors.Is(err, ErrNonFiniteRSSI) {
			t.Errorf("Observe(%v) err = %v, want ErrNonFiniteRSSI", bad, err)
		}
		// Rejection must leave no trace: no identity tracked, and the
		// monotone clock not advanced (an observation at an earlier
		// timestamp still lands).
		if got := m.Tracked(); got != 0 {
			t.Errorf("rejected observation left %d identities tracked", got)
		}
		if err := m.Observe(1, 500*time.Millisecond, -70); err != nil {
			t.Errorf("rejected observation advanced the clock: %v", err)
		}
	}
}

// A non-finite detection threshold is as poisonous as a non-finite
// sample. The worst case was AdaptiveCapKappa = NaN: it slipped past the
// old `== 0` default sentinel, made every pair's NoiseCap NaN, and since
// `Raw > NaN` is always false the cap never vetoed a flag — the
// Equation 8 min-max guarantees some pair normalizes to 0, so every
// clean round convicted its closest normal pair. A NaN MinMedianRSSIDBm
// silently disabled the median floor the same way. Validate now rejects
// non-finite thresholds outright.
func TestConfigRejectsNonFiniteThresholds(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases := map[string]Config{
			"MinMedianRSSIDBm": {MinMedianRSSIDBm: bad},
			"AbsoluteRawCap":   {AbsoluteRawCap: bad},
			"AdaptiveCapKappa": {AdaptiveCapKappa: bad},
		}
		for field, cfg := range cases {
			if _, err := New(cfg); err == nil {
				t.Errorf("New with %s = %v should error", field, bad)
			}
		}
		if _, err := NewDensityEstimator(bad); err == nil {
			t.Errorf("NewDensityEstimator(%v) should error", bad)
		}
		mc := MonitorConfig{Detector: DefaultConfig(testBoundary()), MaxRangeM: bad}
		if _, err := NewMonitor(mc); err == nil {
			t.Errorf("NewMonitor with MaxRangeM = %v should error", bad)
		}
	}
}

// The zero values must keep meaning "default": the sentinel restructure
// (exact-zero test instead of raw float equality) must not change the
// documented semantics.
func TestZeroThresholdsKeepDefaults(t *testing.T) {
	det, err := New(Config{Boundary: testBoundary()})
	if err != nil {
		t.Fatal(err)
	}
	if got := det.Config().AdaptiveCapKappa; got != 1.5 {
		t.Errorf("zero AdaptiveCapKappa defaulted to %v, want 1.5", got)
	}
	if det.medianFloor {
		t.Error("zero MinMedianRSSIDBm should disable the median floor")
	}
	cfg := Config{Boundary: testBoundary()}
	cfg.AdaptiveCapKappa = -1 // negative disables, must survive New
	det, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := det.Config().AdaptiveCapKappa; got != -1 {
		t.Errorf("negative AdaptiveCapKappa rewritten to %v", got)
	}
}
