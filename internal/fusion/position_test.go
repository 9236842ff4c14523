package fusion

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/vanet"
)

func TestPositionConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*PositionConfig)
		want string // error substring; "" means valid
	}{
		{"defaults", func(c *PositionConfig) {}, ""},
		{"nan alpha", func(c *PositionConfig) { c.Alpha = math.NaN() }, "non-finite alpha"},
		{"inf threshold", func(c *PositionConfig) { c.CorrThreshold = math.Inf(1) }, "non-finite correlation threshold"},
		{"nan jump", func(c *PositionConfig) { c.MinJumpM = math.NaN() }, "non-finite min jump"},
		{"alpha one", func(c *PositionConfig) { c.Alpha = 1 }, "outside"},
		{"negative scale", func(c *PositionConfig) { c.MinScaleDB = -1 }, "negative min scale"},
		{"corr above one", func(c *PositionConfig) { c.CorrThreshold = 1.5 }, "outside"},
		{"negative cohort", func(c *PositionConfig) { c.MinCohort = -1 }, "negative sample bounds"},
	}
	for _, tc := range cases {
		cfg := PositionConfig{}.fill()
		tc.mut(&cfg)
		_, err := NewPositionSignal(cfg)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// claimsAt synthesizes n claims at 0.5 s spacing, all claiming constant
// range r on the x axis, received at the signal's own expected RSSI for
// trueRange plus a per-sample offset from wiggle.
func claimsAt(s *PositionSignal, n int, r, trueRange float64, wiggle func(i int) float64) []core.ClaimSample {
	claims := make([]core.ClaimSample, n)
	for i := range claims {
		w := 0.0
		if wiggle != nil {
			w = wiggle(i)
		}
		claims[i] = core.ClaimSample{
			T:    time.Duration(i) * 500 * time.Millisecond,
			X:    r,
			RSSI: s.expectedRSSI(trueRange) + w,
		}
	}
	return claims
}

// TestPositionMeanDeviation: an identity claiming 400 m while its
// beacons arrive at 50 m strength carries a huge systematic deviation;
// honest identities (claims matching arrivals, small wiggle) must not be
// flagged even though the assumed model is applied to all of them.
func TestPositionMeanDeviation(t *testing.T) {
	sig, err := NewPositionSignal(PositionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wiggle := func(k int) func(int) float64 {
		return func(i int) float64 { return 1.5 * math.Sin(float64(i)/3+float64(k)) }
	}
	in := &core.SignalInput{Claims: map[vanet.NodeID][]core.ClaimSample{
		1: claimsAt(sig, 40, 100, 100, wiggle(1)),
		2: claimsAt(sig, 40, 150, 150, wiggle(2)),
		3: claimsAt(sig, 40, 200, 200, wiggle(3)),
		4: claimsAt(sig, 40, 250, 250, wiggle(4)),
		5: claimsAt(sig, 40, 300, 300, wiggle(5)),
		9: claimsAt(sig, 40, 400, 50, wiggle(6)), // liar: claims far, arrives hot
	}}
	res, err := sig.Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Suspects[9] {
		t.Errorf("hot liar not flagged: suspects %v scores %v", res.Suspects, res.Scores)
	}
	for id := vanet.NodeID(1); id <= 5; id++ {
		if res.Suspects[id] {
			t.Errorf("honest identity %d flagged (score %v)", id, res.Scores[id])
		}
	}
	if len(res.Tested) != 6 {
		t.Errorf("tested = %v, want all six", res.Tested)
	}
}

// TestPositionResidualCorrelation: two identities whose deviations move
// in lockstep share one physical shadowing trace — flagged even when
// both window means are unremarkable.
func TestPositionResidualCorrelation(t *testing.T) {
	sig, err := NewPositionSignal(PositionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	shared := func(i int) float64 { return 3 * math.Sin(float64(i)/4) }
	indep := func(k int) func(int) float64 {
		return func(i int) float64 { return 3 * math.Cos(float64(i)/3+1.7*float64(k)) }
	}
	in := &core.SignalInput{Claims: map[vanet.NodeID][]core.ClaimSample{
		101: claimsAt(sig, 40, 100, 100, shared),
		102: claimsAt(sig, 40, 150, 150, shared),
		2:   claimsAt(sig, 40, 120, 120, indep(1)),
		3:   claimsAt(sig, 40, 180, 180, indep(2)),
		4:   claimsAt(sig, 40, 220, 220, indep(3)),
	}}
	res, err := sig.Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Suspects[101] || !res.Suspects[102] {
		t.Errorf("lockstep pair not flagged: %v", res.Suspects)
	}
	for _, id := range []vanet.NodeID{2, 3, 4} {
		if res.Suspects[id] {
			t.Errorf("independent identity %d flagged", id)
		}
	}
}

// TestPositionTeleport: a claimed jump no vehicle could make flags the
// identity even with too few samples for the mean test, and the cohort
// test is skipped entirely below MinCohort.
func TestPositionTeleport(t *testing.T) {
	sig, err := NewPositionSignal(PositionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	jumper := []core.ClaimSample{
		{T: 0, X: 10, RSSI: -70},
		{T: 500 * time.Millisecond, X: 150, RSSI: -70}, // 140 m in 0.5 s = 280 m/s
	}
	cruiser := []core.ClaimSample{
		{T: 0, X: 10, RSSI: -70},
		{T: 500 * time.Millisecond, X: 25, RSSI: -70}, // 30 m/s
	}
	res, err := sig.Analyze(&core.SignalInput{Claims: map[vanet.NodeID][]core.ClaimSample{
		7: jumper, 8: cruiser,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Suspects[7] {
		t.Errorf("teleporting identity not flagged: %v", res.Suspects)
	}
	if res.Suspects[8] {
		t.Error("physical motion flagged as teleport")
	}
	if res.Scores[7] < 200 {
		t.Errorf("teleport score = %v, want the apparent speed", res.Scores[7])
	}
	// Identity 8 had too few samples for the mean test and no teleport:
	// it must be counted skipped, not silently ignored.
	if res.Skipped != 1 {
		t.Errorf("skipped = %d, want 1", res.Skipped)
	}
}

// TestPositionModelMismatchSelfCalibrates: run every identity through a
// wrong assumed environment (claims consistent with heavy extra loss, as
// in a tunnel). The shared offset shifts all deviations together; the
// median centering must absorb it with no false flags.
func TestPositionModelMismatchSelfCalibrates(t *testing.T) {
	sig, err := NewPositionSignal(PositionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const extraLossDB = -25 // every beacon 25 dB colder than the model expects
	wiggle := func(k int) func(int) float64 {
		return func(i int) float64 { return extraLossDB + 1.5*math.Sin(float64(i)/3+float64(k)) }
	}
	claims := map[vanet.NodeID][]core.ClaimSample{}
	for id := vanet.NodeID(1); id <= 6; id++ {
		claims[id] = claimsAt(sig, 40, 100+30*float64(id), 100+30*float64(id), wiggle(int(id)))
	}
	res, err := sig.Analyze(&core.SignalInput{Claims: claims})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suspects) != 0 {
		t.Errorf("uniform model mismatch produced flags: %v (scores %v)", res.Suspects, res.Scores)
	}
}

// refPairCorrelation is pairCorrelation written the plain way: copy the
// common bins out, then take the Pearson correlation of the copies with
// the same summation order and product rounding.
func refPairCorrelation(ba []int64, da []float64, bb []int64, db []float64, minStd float64) (float64, int) {
	var xs, ys []float64
	for i, j := 0, 0; i < len(ba) && j < len(bb); {
		switch {
		case ba[i] < bb[j]:
			i++
		case ba[i] > bb[j]:
			j++
		default:
			xs = append(xs, da[i])
			ys = append(ys, db[j])
			i++
			j++
		}
	}
	n := len(xs)
	if n < 2 {
		return 0, n
	}
	var mx, my float64
	for k := range xs {
		mx += xs[k]
		my += ys[k]
	}
	fn := float64(n)
	mx /= fn
	my /= fn
	var sxx, syy, sxy float64
	for k := range xs {
		dx, dy := xs[k]-mx, ys[k]-my
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
		sxy += float64(dx * dy)
	}
	if !(math.Sqrt(sxx/fn) >= minStd && math.Sqrt(syy/fn) >= minStd) {
		return 0, n
	}
	r := sxy / math.Sqrt(sxx*syy)
	if math.IsNaN(r) {
		return 0, n
	}
	return r, n
}

// bucketSeries draws a sorted bin list (each bin kept with probability
// 3/4) with a deviation per bin.
func bucketSeries(rng *rand.Rand, bins int) ([]int64, []float64) {
	var b []int64
	var d []float64
	for k := 0; k < bins; k++ {
		if rng.Intn(4) == 0 {
			continue
		}
		b = append(b, int64(k))
		d = append(d, rng.NormFloat64()*3+math.Sin(float64(k)/5))
	}
	return b, d
}

// TestPairCorrelationMatchesCopy pins the two-walk pairCorrelation bit
// for bit against the copying reference, and pins that it allocates
// nothing.
func TestPairCorrelationMatchesCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		ba, da := bucketSeries(rng, 1+rng.Intn(80))
		bb, db := bucketSeries(rng, 1+rng.Intn(80))
		minStd := []float64{0, 0.5, 5}[trial%3]
		r, n := pairCorrelation(ba, da, bb, db, minStd)
		wr, wn := refPairCorrelation(ba, da, bb, db, minStd)
		if n != wn || math.Float64bits(r) != math.Float64bits(wr) {
			t.Fatalf("trial %d: got (%v, %d), reference (%v, %d)", trial, r, n, wr, wn)
		}
	}
	ba, da := bucketSeries(rng, 200)
	bb, db := bucketSeries(rng, 200)
	if allocs := testing.AllocsPerRun(20, func() {
		pairCorrelation(ba, da, bb, db, 0.5)
	}); allocs != 0 {
		t.Errorf("pairCorrelation allocates %.0f times per call, want 0", allocs)
	}
}
