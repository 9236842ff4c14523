package radio

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestFreeSpaceKnownValue(t *testing.T) {
	// FSPL at 5.890 GHz, 1 m: 20log10(5.89e9) + 20log10(4*pi/c) ~ 47.84 dB.
	m := FreeSpace{}
	got := m.MeanPathLossDB(1)
	if !almostEqual(got, 47.84, 0.05) {
		t.Errorf("FSPL(1m) = %v, want ~47.84", got)
	}
	// +20 dB per decade of distance.
	if diff := m.MeanPathLossDB(100) - m.MeanPathLossDB(10); !almostEqual(diff, 20, 1e-9) {
		t.Errorf("FSPL decade slope = %v, want 20", diff)
	}
}

func TestFreeSpaceNearFieldClamp(t *testing.T) {
	m := FreeSpace{}
	if m.MeanPathLossDB(0.01) != m.MeanPathLossDB(1) {
		t.Error("distances below MinDistance should clamp to MinDistance")
	}
}

func TestModelsMonotoneNondecreasing(t *testing.T) {
	models := []Model{
		FreeSpace{},
		TwoRayGround{},
		Shadowing{Exponent: 2.7},
		DualSlope{Params: CampusParams},
		DualSlope{Params: RuralParams},
		DualSlope{Params: UrbanParams},
		DualSlope{Params: HighwayParams},
	}
	for _, m := range models {
		t.Run(m.Name(), func(t *testing.T) {
			prev := math.Inf(-1)
			for d := 1.0; d <= 2000; d *= 1.07 {
				pl := m.MeanPathLossDB(d)
				if pl < prev-1e-9 {
					t.Fatalf("path loss decreased at d=%v: %v < %v", d, pl, prev)
				}
				prev = pl
			}
		})
	}
}

func TestTwoRayCrossover(t *testing.T) {
	m := TwoRayGround{}
	dc := m.CrossoverDistance()
	// 4*pi*1.5*1.5 / (c/5.89e9) ~ 555.6 m.
	if !almostEqual(dc, 555.6, 1) {
		t.Errorf("crossover = %v, want ~555.6", dc)
	}
	// Below crossover: equals free space.
	fs := FreeSpace{}
	if !almostEqual(m.MeanPathLossDB(100), fs.MeanPathLossDB(100), 1e-9) {
		t.Error("two-ray below crossover should match free space")
	}
	// Beyond crossover: 40 dB per decade.
	d1, d2 := dc*2, dc*20
	if diff := m.MeanPathLossDB(d2) - m.MeanPathLossDB(d1); !almostEqual(diff, 40, 1e-6) {
		t.Errorf("two-ray far slope = %v dB/decade, want 40", diff)
	}
	// Continuity at the crossover.
	if gap := m.MeanPathLossDB(dc*1.0001) - m.MeanPathLossDB(dc*0.9999); math.Abs(gap) > 0.1 {
		t.Errorf("two-ray discontinuous at crossover: gap %v dB", gap)
	}
}

func TestShadowingSlopeAndNoise(t *testing.T) {
	m := Shadowing{Exponent: 3, SigmaDB: 4}
	if diff := m.MeanPathLossDB(1000) - m.MeanPathLossDB(100); !almostEqual(diff, 30, 1e-9) {
		t.Errorf("shadowing decade slope = %v, want 30", diff)
	}
	rng := rand.New(rand.NewSource(51))
	const n = 20000
	var sum, sumSq float64
	mean := m.MeanPathLossDB(200)
	for i := 0; i < n; i++ {
		v := m.SamplePathLossDB(200, rng)
		sum += v
		sumSq += (v - mean) * (v - mean)
	}
	if !almostEqual(sum/n, mean, 0.2) {
		t.Errorf("sample mean %v, want %v", sum/n, mean)
	}
	if sd := math.Sqrt(sumSq / n); !almostEqual(sd, 4, 0.2) {
		t.Errorf("sample sigma %v, want 4", sd)
	}
}

func TestShadowingNilRNG(t *testing.T) {
	m := Shadowing{Exponent: 2.7, SigmaDB: 4}
	if m.SamplePathLossDB(100, nil) != m.MeanPathLossDB(100) {
		t.Error("nil rng should return the mean")
	}
}

func TestDualSlopeSegments(t *testing.T) {
	p := CampusParams
	m := DualSlope{Params: p}
	// Near segment: gamma1 per decade.
	if diff := m.MeanPathLossDB(100) - m.MeanPathLossDB(10); !almostEqual(diff, 10*p.Gamma1, 1e-9) {
		t.Errorf("near slope = %v, want %v", diff, 10*p.Gamma1)
	}
	// Far segment: gamma2 per decade.
	if diff := m.MeanPathLossDB(p.CriticalDistance*10) - m.MeanPathLossDB(p.CriticalDistance); !almostEqual(diff, 10*p.Gamma2, 1e-9) {
		t.Errorf("far slope = %v, want %v", diff, 10*p.Gamma2)
	}
	// Continuity at the breakpoint.
	gap := m.MeanPathLossDB(p.CriticalDistance+0.001) - m.MeanPathLossDB(p.CriticalDistance-0.001)
	if math.Abs(gap) > 0.01 {
		t.Errorf("dual-slope discontinuous at d_c: gap %v dB", gap)
	}
}

func TestDualSlopeSigmaBySegment(t *testing.T) {
	p := UrbanParams // sigma1=3.9, sigma2=5.2
	m := DualSlope{Params: p}
	rng := rand.New(rand.NewSource(52))
	measureSigma := func(d float64) float64 {
		mean := m.MeanPathLossDB(d)
		var sumSq float64
		const n = 20000
		for i := 0; i < n; i++ {
			v := m.SamplePathLossDB(d, rng) - mean
			sumSq += v * v
		}
		return math.Sqrt(sumSq / n)
	}
	if sd := measureSigma(50); !almostEqual(sd, p.Sigma1, 0.2) {
		t.Errorf("near sigma %v, want %v", sd, p.Sigma1)
	}
	if sd := measureSigma(400); !almostEqual(sd, p.Sigma2, 0.2) {
		t.Errorf("far sigma %v, want %v", sd, p.Sigma2)
	}
}

func TestDualSlopeParamsValidate(t *testing.T) {
	tests := []struct {
		name string
		p    DualSlopeParams
		ok   bool
	}{
		{"campus", CampusParams, true},
		{"rural", RuralParams, true},
		{"urban", UrbanParams, true},
		{"highway", HighwayParams, true},
		{"zero", DualSlopeParams{}, false},
		{"dc below d0", DualSlopeParams{RefDistance: 10, CriticalDistance: 5, Gamma1: 2, Gamma2: 4}, false},
		{"negative gamma", DualSlopeParams{RefDistance: 1, CriticalDistance: 100, Gamma1: -1, Gamma2: 4}, false},
		{"negative sigma", DualSlopeParams{RefDistance: 1, CriticalDistance: 100, Gamma1: 2, Gamma2: 4, Sigma1: -1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.p.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestRayleighFading(t *testing.T) {
	m := Rayleigh{Mean: FreeSpace{}}
	rng := rand.New(rand.NewSource(53))
	// Rayleigh fading in dB: median offset is 10log10(ln 2) ~ -1.59 dB
	// below the mean-model loss; spread is large.
	const n = 20000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = m.SamplePathLossDB(100, rng) - m.MeanPathLossDB(100)
	}
	var above float64
	for _, v := range vals {
		if v > 0 {
			above++
		}
	}
	// P(loss > mean) = P(gain < 1) = 1 - e^-1 ~ 0.632.
	if frac := above / n; !almostEqual(frac, 0.632, 0.02) {
		t.Errorf("fraction above mean = %v, want ~0.632", frac)
	}
	if m.SamplePathLossDB(100, nil) != m.MeanPathLossDB(100) {
		t.Error("nil rng should return the mean")
	}
}

func TestRxPowerDBm(t *testing.T) {
	if got := RxPowerDBm(20, 7, 100); got != -73 {
		t.Errorf("RxPower = %v, want -73", got)
	}
}

func TestEstimateDistanceRoundTrip(t *testing.T) {
	models := []Model{FreeSpace{}, TwoRayGround{}, DualSlope{Params: CampusParams}}
	for _, m := range models {
		t.Run(m.Name(), func(t *testing.T) {
			for _, d := range []float64{5, 50, 140, 500, 1500} {
				pl := m.MeanPathLossDB(d)
				got, err := EstimateDistance(m, pl, 1, 10000)
				if err != nil {
					t.Fatalf("d=%v: %v", d, err)
				}
				if !almostEqual(got, d, d*0.001+0.01) {
					t.Errorf("EstimateDistance(PL(%v)) = %v", d, got)
				}
			}
		})
	}
}

func TestEstimateDistanceErrors(t *testing.T) {
	m := FreeSpace{}
	if _, err := EstimateDistance(m, 1000, 1, 100); err != ErrNotInvertible {
		t.Errorf("unattainable loss: err = %v, want ErrNotInvertible", err)
	}
	if _, err := EstimateDistance(m, 80, -1, 100); err == nil {
		t.Error("bad bracket should error")
	}
	if _, err := EstimateDistance(m, 80, 100, 100); err == nil {
		t.Error("empty bracket should error")
	}
}

// TestFig5DistanceOverestimate reproduces the quantitative core of
// Observation 1: a receiver 140 m away in a campus-like channel (dual
// slope, gamma1 < 2 near, gamma2 >> 2 far) logs a mean RSSI whose
// free-space/two-ray inversion lands far from 140 m.
func TestFig5DistanceOverestimate(t *testing.T) {
	truth := DualSlope{Params: CampusParams}
	const trueDist = 140.0
	pl := truth.MeanPathLossDB(trueDist)
	for _, m := range []Model{FreeSpace{}, TwoRayGround{}} {
		est, err := EstimateDistance(m, pl, 1, 50000)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if relErr := math.Abs(est-trueDist) / trueDist; relErr < 0.2 {
			t.Errorf("%s estimate %.1f m is implausibly accurate (paper reports ~170-280 m)",
				m.Name(), est)
		}
	}
}

func TestSwitcher(t *testing.T) {
	a := DualSlope{Params: CampusParams}
	b := DualSlope{Params: UrbanParams}
	s, err := NewSwitcher(30*time.Second, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ModelAt(0); got.Name() != a.Name() || got.(DualSlope).Params != CampusParams {
		t.Error("t=0 should use first model")
	}
	if got := s.ModelAt(31 * time.Second).(DualSlope); got.Params != UrbanParams {
		t.Error("t=31s should use second model")
	}
	if got := s.ModelAt(60 * time.Second).(DualSlope); got.Params != CampusParams {
		t.Error("t=60s should wrap to first model")
	}
	if got := s.ModelAt(-5 * time.Second).(DualSlope); got.Params != CampusParams {
		t.Error("negative time should clamp to first model")
	}
	// Mean path loss differs across the switch, which is what breaks
	// model-dependent detectors.
	if s.MeanPathLossDB(0, 300) == s.MeanPathLossDB(31*time.Second, 300) {
		t.Error("switch should change the channel")
	}
}

func TestSwitcherErrors(t *testing.T) {
	if _, err := NewSwitcher(time.Second); err == nil {
		t.Error("no models should error")
	}
	if _, err := NewSwitcher(0, FreeSpace{}); err == nil {
		t.Error("zero period should error")
	}
}

func TestStaticChannel(t *testing.T) {
	m := DualSlope{Params: RuralParams}
	ch := Static{Model: m}
	if ch.MeanPathLossDB(5*time.Minute, 100) != m.MeanPathLossDB(100) {
		t.Error("static channel should ignore time")
	}
	rng := rand.New(rand.NewSource(54))
	_ = ch.SamplePathLossDB(0, 100, rng) // must not panic
}

func TestNakagamiUnitMeanGain(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for _, m := range []float64{0.5, 1, 3, 8} {
		model := Nakagami{Mean: FreeSpace{}, M: m}
		meanPL := model.MeanPathLossDB(100)
		// Mean *linear power* gain is 1: average the linear deviations.
		var sum float64
		const n = 40000
		for i := 0; i < n; i++ {
			dev := meanPL - model.SamplePathLossDB(100, rng) // +gain dB
			sum += math.Pow(10, dev/10)
		}
		if mean := sum / n; !almostEqual(mean, 1, 0.05) {
			t.Errorf("m=%v: mean linear gain %v, want 1", m, mean)
		}
	}
}

func TestNakagamiReducesToRayleigh(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	nak := Nakagami{Mean: FreeSpace{}, M: 1}
	// For m=1 the power gain is Exp(1): P(loss > mean) = 1 - 1/e.
	meanPL := nak.MeanPathLossDB(100)
	above := 0
	const n = 30000
	for i := 0; i < n; i++ {
		if nak.SamplePathLossDB(100, rng) > meanPL {
			above++
		}
	}
	frac := float64(above) / n
	if !almostEqual(frac, 0.632, 0.02) {
		t.Errorf("m=1 fraction above mean = %v, want ~0.632", frac)
	}
}

func TestNakagamiSpreadShrinksWithM(t *testing.T) {
	if s1, s8 := (Nakagami{M: 1}).ShadowSigmaDB(100), (Nakagami{M: 8}).ShadowSigmaDB(100); s8 >= s1 {
		t.Errorf("sigma(m=8)=%v should be below sigma(m=1)=%v", s8, s1)
	}
	// m=1 should match the Rayleigh dB spread (~5.57 dB).
	if s := (Nakagami{M: 1}).ShadowSigmaDB(100); !almostEqual(s, 5.57, 0.05) {
		t.Errorf("sigma(m=1) = %v, want ~5.57", s)
	}
	// Shape clamping and default.
	if (Nakagami{M: 0.1}).shape() != 0.5 {
		t.Error("shape should clamp to 0.5")
	}
	if (Nakagami{}).shape() != 3 {
		t.Error("zero M should default to 3")
	}
	if (Nakagami{}).Name() != "nakagami" {
		t.Error("name mismatch")
	}
	if (Nakagami{M: 1}).SamplePathLossDB(100, nil) != (Nakagami{M: 1}).MeanPathLossDB(100) {
		t.Error("nil rng should return the mean")
	}
}

func TestShadowSigmaDBImplementations(t *testing.T) {
	if got := (FreeSpace{}).ShadowSigmaDB(100); got != 0 {
		t.Errorf("free space sigma = %v, want 0", got)
	}
	if got := (TwoRayGround{}).ShadowSigmaDB(100); got != 0 {
		t.Errorf("two-ray sigma = %v, want 0", got)
	}
	if got := (Shadowing{SigmaDB: 3.9}).ShadowSigmaDB(100); got != 3.9 {
		t.Errorf("shadowing sigma = %v, want 3.9", got)
	}
	ds := DualSlope{Params: UrbanParams}
	if got := ds.ShadowSigmaDB(50); got != UrbanParams.Sigma1 {
		t.Errorf("near sigma = %v, want %v", got, UrbanParams.Sigma1)
	}
	if got := ds.ShadowSigmaDB(500); got != UrbanParams.Sigma2 {
		t.Errorf("far sigma = %v, want %v", got, UrbanParams.Sigma2)
	}
	// Rayleigh on free space: pure envelope spread ~5.57 dB; on shadowing,
	// quadrature combination.
	if got := (Rayleigh{}).ShadowSigmaDB(100); !almostEqual(got, 5.5697, 1e-3) {
		t.Errorf("rayleigh sigma = %v, want ~5.57", got)
	}
	combined := (Rayleigh{Mean: Shadowing{SigmaDB: 3.9}}).ShadowSigmaDB(100)
	want := math.Sqrt(3.9*3.9 + 5.5697*5.5697)
	if !almostEqual(combined, want, 1e-3) {
		t.Errorf("combined sigma = %v, want %v", combined, want)
	}
	if (Rayleigh{}).Name() != "rayleigh-fading" {
		t.Error("rayleigh name mismatch")
	}
}

func TestSwitcherSampleAndSigma(t *testing.T) {
	a := DualSlope{Params: CampusParams}
	b := Shadowing{Exponent: 2.7, SigmaDB: 3.9}
	s, err := NewSwitcher(10*time.Second, a, b)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(59))
	if got := s.SamplePathLossDB(0, 50, rng); got <= 0 {
		t.Errorf("sample = %v", got)
	}
	if got := s.ShadowSigmaDB(0, 50); got != CampusParams.Sigma1 {
		t.Errorf("t=0 sigma = %v, want campus near sigma", got)
	}
	if got := s.ShadowSigmaDB(11*time.Second, 50); got != 3.9 {
		t.Errorf("t=11s sigma = %v, want 3.9", got)
	}
}

func TestTwoRayNonDefaults(t *testing.T) {
	m := TwoRayGround{FreqHz: 2.4e9, TxHeight: 2, RxHeight: 3, MinDistance: 5}
	if m.MeanPathLossDB(1) != m.MeanPathLossDB(5) {
		t.Error("custom MinDistance not honored")
	}
	want := 4 * math.Pi * 2 * 3 / Wavelength(2.4e9)
	if !almostEqual(m.CrossoverDistance(), want, 1e-9) {
		t.Errorf("crossover = %v, want %v", m.CrossoverDistance(), want)
	}
	rng := rand.New(rand.NewSource(60))
	if m.SamplePathLossDB(100, rng) != m.MeanPathLossDB(100) {
		t.Error("two-ray sample should equal mean")
	}
}

func TestShadowingNonDefaults(t *testing.T) {
	m := Shadowing{RefDistance: 10, Exponent: 3.5}
	if m.MeanPathLossDB(5) != m.MeanPathLossDB(10) {
		t.Error("custom RefDistance not honored")
	}
	if diff := m.MeanPathLossDB(1000) - m.MeanPathLossDB(100); !almostEqual(diff, 35, 1e-9) {
		t.Errorf("custom exponent slope = %v, want 35", diff)
	}
}

func TestRayleighCustomMean(t *testing.T) {
	m := Rayleigh{Mean: TwoRayGround{}}
	if m.MeanPathLossDB(100) != (TwoRayGround{}).MeanPathLossDB(100) {
		t.Error("custom mean model not used")
	}
}
