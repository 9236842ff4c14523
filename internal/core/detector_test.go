package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"voiceprint/internal/lda"
	"voiceprint/internal/radio"
	"voiceprint/internal/timeseries"
	"voiceprint/internal/vanet"
)

const beat = 100 * time.Millisecond

// vehicleTrace synthesizes the noise-free RSSI trend a receiver hears
// from one physical vehicle, derived from an actual relative trajectory:
// a random closest-approach distance, approach time and relative speed
// yield a distance profile d(t) whose dual-slope path loss is the trend.
// Distinct vehicles get distinct geometry; that difference — curvature
// and the location of the closest approach, which survives Z-score
// normalization — is what Voiceprint discriminates on (Observation 3).
func vehicleTrace(rng *rand.Rand) *timeseries.Series {
	const n = 200
	model := radio.DualSlope{Params: radio.HighwayParams}
	// Vehicles keep moving relative to the receiver (the regime the paper
	// claims: "especially in the rural and highway environments where
	// vehicles can keep moving"), and — like the epoch mobility model —
	// the relative speed changes every few seconds. Those speed-change
	// kinks land at vehicle-specific times, giving each trace the
	// idiosyncratic shape Voiceprint keys on; perfectly smooth constant-
	// velocity profiles are nearly shape-degenerate after Z-scoring (a
	// speed factor becomes an additive log-domain constant).
	dy := 5 + rng.Float64()*60 // closest lateral distance, m
	dx := (rng.Float64()*2 - 1) * 400
	sign := 1.0
	if rng.Float64() < 0.5 {
		sign = -1
	}
	vrel := sign * (8 + rng.Float64()*12) // sustained relative motion
	epochLeft := rng.ExpFloat64() * 5
	values := make([]float64, n)
	for i := range values {
		d := math.Sqrt(dy*dy + dx*dx)
		values[i] = radio.RxPowerDBm(20, 0, model.MeanPathLossDB(d))
		dx += vrel * 0.1
		epochLeft -= 0.1
		if epochLeft <= 0 {
			// Epoch boundary: the relative speed magnitude changes (the
			// kink), direction persists like real overtaking traffic.
			epochLeft = rng.ExpFloat64() * 5
			vrel = sign * (8 + rng.Float64()*12)
		}
	}
	return timeseries.FromValues(values, beat)
}

// withShadow adds a correlated (AR(1), tau ~1 s) shadowing trace to a
// mean trend, mirroring the engine's per-link channel: all identities of
// one physical radio share this exact realization.
func withShadow(trend *timeseries.Series, sigma float64, rng *rand.Rand) *timeseries.Series {
	const rho = 0.905 // exp(-0.1s / 1s)
	out := timeseries.New(trend.Len())
	z := rng.NormFloat64()
	for i := 0; i < trend.Len(); i++ {
		if i > 0 {
			z = rho*z + math.Sqrt(1-rho*rho)*rng.NormFloat64()
		}
		smp := trend.At(i)
		_ = out.Append(smp.T, smp.RSSI+sigma*z)
	}
	return out
}

// sybilCluster synthesizes what a receiver hears during an attack: ids
// 1, 101, 102 share one physical transmitter — the same trend AND the
// same correlated shadowing trace (they traverse the same channel), plus
// per-identity constant TX offsets, i.i.d. measurement noise and packet
// loss. The rest are independent vehicles with their own geometry and
// their own shadowing realizations.
func sybilCluster(rng *rand.Rand, extraNormals int) map[vanet.NodeID]*timeseries.Series {
	series := make(map[vanet.NodeID]*timeseries.Series)
	addNoisy := func(id vanet.NodeID, src *timeseries.Series, offset float64) {
		s := timeseries.Shift(src, offset)
		noisy := timeseries.New(s.Len())
		for i := 0; i < s.Len(); i++ {
			smp := s.At(i)
			_ = noisy.Append(smp.T, smp.RSSI+1.0*rng.NormFloat64())
		}
		series[id] = timeseries.Drop(noisy, 0.05, rng)
	}
	base := withShadow(vehicleTrace(rng), 3.0, rng)
	addNoisy(1, base, 0)
	addNoisy(101, base, 3)  // Sybil at +3 dB TX power
	addNoisy(102, base, -3) // Sybil at -3 dB TX power
	for i := 0; i < extraNormals; i++ {
		addNoisy(vanet.NodeID(2+i), withShadow(vehicleTrace(rng), 3.0, rng), 0)
	}
	return series
}

func testBoundary() lda.Boundary {
	// Calibrated for this generator's distance distribution, the way the
	// experiments calibrate theirs by LDA training on harvested pairs
	// (Figure 10): Sybil pairs normalize to <= ~0.004, the closest
	// coincidental normal pair rarely below ~0.01.
	return lda.Boundary{K: 0.0001, B: 0.005}
}

func TestDetectFlagsSybilCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	cfg := DefaultConfig(testBoundary())
	cfg.MinMedianRSSIDBm = 0 // keep every synthetic vehicle in view
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Score statistically over trials: the paper itself reports DR >= 90%
	// and FPR <= 10%, with occasional coincidental false positives (two
	// vehicles sharing a trajectory shape).
	const trials = 20
	var tp, illegit, fp, normal int
	for trial := 0; trial < trials; trial++ {
		series := sybilCluster(rng, 6)
		res, err := det.Detect(series, 20)
		if err != nil {
			t.Fatal(err)
		}
		illegit += 3
		normal += 6
		for _, id := range []vanet.NodeID{1, 101, 102} {
			if res.Suspects[id] {
				tp++
			}
		}
		for id := range res.Suspects {
			if id != 1 && id != 101 && id != 102 {
				fp++
			}
		}
	}
	dr := float64(tp) / float64(illegit)
	fpr := float64(fp) / float64(normal)
	if dr < 0.9 {
		t.Errorf("aggregate DR = %.3f, want >= 0.90", dr)
	}
	if fpr > 0.12 {
		t.Errorf("aggregate FPR = %.3f, want <= 0.12", fpr)
	}
}

func TestDetectPairDiagnostics(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	cfg := DefaultConfig(testBoundary())
	cfg.MinMedianRSSIDBm = 0 // keep every synthetic vehicle in view
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := sybilCluster(rng, 4)
	res, err := det.Detect(series, 20)
	if err != nil {
		t.Fatal(err)
	}
	// 7 identities -> 21 pairs.
	if len(res.Pairs) != 21 {
		t.Fatalf("got %d pairs, want 21", len(res.Pairs))
	}
	for _, p := range res.Pairs {
		if p.Normalized < 0 || p.Normalized > 1 {
			t.Errorf("pair (%d,%d) normalized distance %v outside [0,1]", p.A, p.B, p.Normalized)
		}
		if p.Raw < 0 {
			t.Errorf("pair (%d,%d) raw distance negative", p.A, p.B)
		}
		if p.A >= p.B {
			t.Errorf("pair ordering violated: (%d,%d)", p.A, p.B)
		}
	}
	if len(res.Considered) != 7 {
		t.Errorf("considered %d identities, want 7", len(res.Considered))
	}
}

// TestDetectImmuneToTxPowerSpoofing pins Assumption 3's countermeasure:
// giving each Sybil identity a wildly different constant TX power must not
// break detection, because the Z-score normalization removes offsets.
func TestDetectImmuneToTxPowerSpoofing(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	cfg := DefaultConfig(testBoundary())
	cfg.MinMedianRSSIDBm = 0
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := make(map[vanet.NodeID]*timeseries.Series)
	base := timeseries.GenRandomWalk(200, -70, 1.2, -90, -50, beat, rng)
	for i, offset := range []float64{0, +10, -10} { // extreme spoofing
		id := vanet.NodeID(100 + i)
		shifted := timeseries.Shift(base, offset)
		noisy := timeseries.New(shifted.Len())
		for k := 0; k < shifted.Len(); k++ {
			smp := shifted.At(k)
			_ = noisy.Append(smp.T, smp.RSSI+0.5*rng.NormFloat64())
		}
		series[id] = noisy
	}
	for i := 0; i < 5; i++ {
		series[vanet.NodeID(1+i)] = timeseries.GenRandomWalk(200, -72, 1.2, -90, -50, beat, rng)
	}
	res, err := det.Detect(series, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []vanet.NodeID{100, 101, 102} {
		if !res.Suspects[id] {
			t.Errorf("spoofed-power Sybil %d escaped detection", id)
		}
	}
}

func TestDetectTooFewIdentities(t *testing.T) {
	rng := rand.New(rand.NewSource(114))
	det, err := New(DefaultConfig(testBoundary()))
	if err != nil {
		t.Fatal(err)
	}
	series := map[vanet.NodeID]*timeseries.Series{
		1: timeseries.GenRandomWalk(100, -70, 1, -90, -50, beat, rng),
		2: timeseries.GenRandomWalk(100, -70, 1, -90, -50, beat, rng),
	}
	res, err := det.Detect(series, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suspects) != 0 || len(res.Pairs) != 0 {
		t.Error("two identities should produce an empty result (degenerate min-max)")
	}
}

func TestDetectSkipsShortSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(115))
	cfg := DefaultConfig(testBoundary())
	cfg.MinMedianRSSIDBm = 0
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := sybilCluster(rng, 3)
	series[999] = timeseries.GenRandomWalk(3, -70, 1, -90, -50, beat, rng) // too short
	series[998] = nil
	res, err := det.Detect(series, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 2 {
		t.Errorf("Skipped = %d, want 2", res.Skipped)
	}
	for _, id := range res.Considered {
		if id == 999 || id == 998 {
			t.Error("short/nil series should not be considered")
		}
	}
}

func TestDetectNegativeDensity(t *testing.T) {
	det, err := New(DefaultConfig(testBoundary()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Detect(nil, -1); err == nil {
		t.Error("negative density should error")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{MinSamples: -1}); err == nil {
		t.Error("negative MinSamples should error")
	}
	if _, err := New(Config{ObservationTime: -time.Second}); err == nil {
		t.Error("negative observation time should error")
	}
	det, err := New(Config{Boundary: testBoundary()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := det.Config()
	if cfg.MinSamples != 30 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestEstimateDensity(t *testing.T) {
	// 80 neighbors at 400 m max range -> 100 vhls/km (the paper's
	// Section VI-B extreme-case example).
	den, err := EstimateDensity(80, 400)
	if err != nil {
		t.Fatal(err)
	}
	if den != 100 {
		t.Errorf("density = %v, want 100", den)
	}
	if _, err := EstimateDensity(10, 0); err == nil {
		t.Error("zero range should error")
	}
	if _, err := EstimateDensity(-1, 400); err == nil {
		t.Error("negative count should error")
	}
}

func TestDensityEstimatorExcludesKnownSybil(t *testing.T) {
	e, err := NewDensityEstimator(400)
	if err != nil {
		t.Fatal(err)
	}
	heard := []vanet.NodeID{1, 2, 3, 101}
	if den := e.Estimate(heard); den != 5 { // 4 / 0.8
		t.Errorf("first estimate = %v, want 5", den)
	}
	e.Record(map[vanet.NodeID]bool{101: true, 55: false})
	if den := e.Estimate(heard); den != 3.75 { // 3 / 0.8
		t.Errorf("post-record estimate = %v, want 3.75", den)
	}
	if _, err := NewDensityEstimator(0); err == nil {
		t.Error("zero range should error")
	}
}

func TestConfirmer(t *testing.T) {
	c, err := NewConfirmer(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	heard := []vanet.NodeID{1, 2}
	// Round 1: id 1 flagged once -> not confirmed.
	got := c.Update(heard, map[vanet.NodeID]bool{1: true})
	if got[1] {
		t.Error("one flag of two needed should not confirm")
	}
	// Round 2: id 1 flagged again -> confirmed.
	got = c.Update(heard, map[vanet.NodeID]bool{1: true})
	if !got[1] {
		t.Error("two flags should confirm")
	}
	if got[2] {
		t.Error("never-flagged identity confirmed")
	}
	// Rounds 3-4: no more flags; the window slides the flags out.
	c.Update(heard, nil)
	got = c.Update(heard, nil)
	if got[1] {
		t.Error("stale flags should age out of the window")
	}
	// A transient false positive (1 flag in 3 rounds) never confirms.
	got = c.Update(heard, map[vanet.NodeID]bool{2: true})
	if got[2] {
		t.Error("single transient flag should not confirm")
	}
}

func TestConfirmerForget(t *testing.T) {
	c, err := NewConfirmer(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	heard := []vanet.NodeID{7}
	if got := c.Update(heard, map[vanet.NodeID]bool{7: true}); !got[7] {
		t.Fatal("flag should confirm with need=1")
	}
	c.Forget(7)
	if got := c.Update(nil, nil); got[7] {
		t.Error("forgotten identity should not stay confirmed")
	}
}

func TestConfirmerValidation(t *testing.T) {
	for _, tc := range [][2]int{{0, 1}, {1, 0}, {2, 3}} {
		if _, err := NewConfirmer(tc[0], tc[1]); err == nil {
			t.Errorf("NewConfirmer(%d, %d) should error", tc[0], tc[1])
		}
	}
}

// TestDetectMedianRSSIFloor verifies fringe identities (median RSSI below
// the floor) are excluded from comparison.
func TestDetectMedianRSSIFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(116))
	cfg := DefaultConfig(testBoundary())
	cfg.MinMedianRSSIDBm = -80
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := map[vanet.NodeID]*timeseries.Series{
		1: timeseries.GenRandomWalk(100, -70, 1, -78, -60, beat, rng),
		2: timeseries.GenRandomWalk(100, -70, 1, -78, -60, beat, rng),
		3: timeseries.GenRandomWalk(100, -70, 1, -78, -60, beat, rng),
		9: timeseries.GenRandomWalk(100, -92, 1, -95, -86, beat, rng), // fringe
	}
	res, err := det.Detect(series, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 1 {
		t.Errorf("Skipped = %d, want 1 (fringe identity)", res.Skipped)
	}
	for _, id := range res.Considered {
		if id == 9 {
			t.Error("fringe identity should not be considered")
		}
	}
}

// TestDetectAbsoluteCap verifies the cap vetoes boundary flags whose raw
// distance is too large.
func TestDetectAbsoluteCap(t *testing.T) {
	rng := rand.New(rand.NewSource(117))
	cfg := DefaultConfig(lda.Boundary{K: 0, B: 2}) // boundary flags everything
	cfg.MinMedianRSSIDBm = 0
	cfg.AbsoluteRawCap = 1e-9 // cap vetoes everything but exact matches
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := sybilCluster(rng, 4)
	res, err := det.Detect(series, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suspects) != 0 {
		t.Errorf("cap should veto all flags, got %d suspects", len(res.Suspects))
	}
}

// TestCompareUnconstrainedFallback exercises the BandRadius < 0 path
// (unconstrained FastDTW, the ablation configuration).
func TestCompareUnconstrainedFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(118))
	cfg := DefaultConfig(testBoundary())
	cfg.BandRadius = -1
	cfg.MinMedianRSSIDBm = 0
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := sybilCluster(rng, 4)
	res, err := det.Detect(series, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Fatal("no pairs compared")
	}
	for _, id := range []vanet.NodeID{1, 101, 102} {
		if !res.Suspects[id] {
			t.Errorf("unconstrained comparison missed cluster identity %d", id)
		}
	}
}

// TestDetectParallelDeterminism: the parallel comparison phase must be
// bit-identical to the sequential loop at any worker count — pairs land
// in preassigned slots, no merge order dependence.
func TestDetectParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(119))
	series := sybilCluster(rng, 12) // 15 identities, 105 pairs
	detect := func(workers int) *Result {
		t.Helper()
		cfg := DefaultConfig(testBoundary())
		cfg.MinMedianRSSIDBm = 0
		cfg.Workers = workers
		det, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := det.Detect(series, 20)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := detect(1)
	if len(seq.Pairs) != 105 {
		t.Fatalf("pairs = %d, want 105", len(seq.Pairs))
	}
	for _, workers := range []int{0, 2, 7, 32} {
		par := detect(workers)
		if len(par.Pairs) != len(seq.Pairs) {
			t.Fatalf("workers=%d: %d pairs vs %d", workers, len(par.Pairs), len(seq.Pairs))
		}
		for i := range seq.Pairs {
			if seq.Pairs[i] != par.Pairs[i] {
				t.Errorf("workers=%d pair %d: %+v != sequential %+v",
					workers, i, par.Pairs[i], seq.Pairs[i])
			}
		}
		for id := range seq.Suspects {
			if !par.Suspects[id] {
				t.Errorf("workers=%d: suspect %d missing", workers, id)
			}
		}
	}
	if _, err := New(Config{Boundary: testBoundary(), Workers: -1}); err == nil {
		t.Error("negative Workers should error")
	}
}

// TestDetectSteadyStateAllocs pins the sequential round's allocation
// budget: after warm-up a detection round allocates only the escaping
// Result payload (struct, suspect map, considered copy, pair slice) —
// every intermediate buffer comes from pooled scratch. A regression here
// means the hot path started allocating again.
func TestDetectSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	rng := rand.New(rand.NewSource(125))
	series := sybilCluster(rng, 12) // 15 identities, 105 pairs
	cfg := DefaultConfig(testBoundary())
	cfg.MinMedianRSSIDBm = 0
	cfg.Workers = 1 // goroutine fan-out itself allocates; pin the core path
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // warm the scratch and workspace pools
		if _, err := det.Detect(series, 20); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := det.Detect(series, 20); err != nil {
			t.Fatal(err)
		}
	})
	// 105 pairs used to cost ~55 allocations per identity plus one per
	// pair; the budget leaves headroom for the Result payload only. The
	// nil-Observer instrumentation guards must add exactly nothing here —
	// a regression means the hook stopped being free for deployments that
	// don't install one.
	if allocs > 12 {
		t.Errorf("steady-state round (nil Observer) allocates %.0f times, budget is 12", allocs)
	}

	// An installed observer may not change the budget either: stage
	// timing is clock reads plus the observer call, both allocation-free.
	obsCfg := cfg
	obsCfg.Observer = noopObserver{}
	obsDet, err := New(obsCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := obsDet.Detect(series, 20); err != nil {
			t.Fatal(err)
		}
	}
	obsAllocs := testing.AllocsPerRun(10, func() {
		if _, err := obsDet.Detect(series, 20); err != nil {
			t.Fatal(err)
		}
	})
	if obsAllocs > allocs {
		t.Errorf("observer-instrumented round allocates %.0f times vs %.0f bare; stage timing must be allocation-free", obsAllocs, allocs)
	}
}

// noopObserver is the cheapest possible Observer: the alloc test uses it
// to prove the instrumented path itself allocates nothing.
type noopObserver struct{}

func (noopObserver) ObserveStage(Stage, time.Duration) {}
