package baseline

import (
	"math/rand"
	"testing"

	"voiceprint/internal/radio"
	"voiceprint/internal/vanet"
)

func testModel() radio.Model {
	return radio.Shadowing{Exponent: 2.7, SigmaDB: 3.9}
}

func newDetector(t *testing.T) *Detector {
	t.Helper()
	d, err := New(testModel())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// honestReport simulates a truthful sender at trueDist == claimedDist.
func honestReport(d *Detector, n int, dist float64, model radio.Model, rng *rand.Rand) *WitnessReport {
	r := &WitnessReport{}
	for i := 0; i < n; i++ {
		rssi := radio.RxPowerDBm(20, 0, model.SamplePathLossDB(dist, rng))
		r.Deviations = append(r.Deviations, d.Deviation(rssi, dist))
	}
	return r
}

// sybilReport simulates a Sybil identity: beacons originate at trueDist
// but the claim says claimedDist.
func sybilReport(d *Detector, n int, trueDist, claimedDist float64, model radio.Model, rng *rand.Rand) *WitnessReport {
	r := &WitnessReport{}
	for i := 0; i < n; i++ {
		rssi := radio.RxPowerDBm(20, 0, model.SamplePathLossDB(trueDist, rng))
		r.Deviations = append(r.Deviations, d.Deviation(rssi, claimedDist))
	}
	return r
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("missing model should error")
	}
}

func TestDetectAcceptsHonestNodes(t *testing.T) {
	d := newDetector(t)
	rng := rand.New(rand.NewSource(121))
	model := testModel() // world matches the assumed model
	flagged := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		own := map[vanet.NodeID]*WitnessReport{
			1: honestReport(d, 50, 80+rng.Float64()*200, model, rng),
		}
		res, err := d.Detect(own, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Suspects[1] {
			flagged++
		}
	}
	// Should be around alpha = 5%; allow generous slack.
	if flagged > trials/5 {
		t.Errorf("honest node flagged %d/%d times", flagged, trials)
	}
}

func TestDetectRejectsSybilClaims(t *testing.T) {
	d := newDetector(t)
	rng := rand.New(rand.NewSource(122))
	model := testModel()
	detected := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		// Attacker at 100 m claims to be at 250 m.
		own := map[vanet.NodeID]*WitnessReport{
			101: sybilReport(d, 50, 100, 250, model, rng),
		}
		res, err := d.Detect(own, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Suspects[101] {
			detected++
		}
	}
	if detected < 90 {
		t.Errorf("Sybil detected only %d/%d times", detected, trials)
	}
}

func TestDetectCooperationIncreasesPower(t *testing.T) {
	d := newDetector(t)
	model := testModel()
	// A subtle false claim (150 m -> 190 m): few samples alone, many with
	// witnesses.
	detectRate := func(nWitnesses int, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		detected := 0
		const trials = 200
		for i := 0; i < trials; i++ {
			own := map[vanet.NodeID]*WitnessReport{
				101: sybilReport(d, 12, 150, 190, model, rng),
			}
			var wit []map[vanet.NodeID]*WitnessReport
			for w := 0; w < nWitnesses; w++ {
				wit = append(wit, map[vanet.NodeID]*WitnessReport{
					101: sybilReport(d, 12, 120+rng.Float64()*100, 160+rng.Float64()*100, model, rng),
				})
			}
			res, err := d.Detect(own, wit)
			if err != nil {
				t.Fatal(err)
			}
			if res.Suspects[101] {
				detected++
			}
		}
		return float64(detected) / trials
	}
	alone := detectRate(0, 123)
	cooperative := detectRate(6, 124)
	if cooperative <= alone {
		t.Errorf("cooperation did not help: alone %.2f, with witnesses %.2f", alone, cooperative)
	}
}

// TestDetectBreaksUnderModelDrift pins the Figure 11b mechanism: when the
// real channel's parameters drift from the assumed model, honest nodes
// start failing the position test.
func TestDetectBreaksUnderModelDrift(t *testing.T) {
	d := newDetector(t)
	rng := rand.New(rand.NewSource(125))
	drifted := radio.Shadowing{Exponent: 3.4, SigmaDB: 3.9} // true world
	flagged := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		own := map[vanet.NodeID]*WitnessReport{
			1: honestReport(d, 50, 100+rng.Float64()*150, drifted, rng),
		}
		res, err := d.Detect(own, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Suspects[1] {
			flagged++
		}
	}
	if flagged < 60 {
		t.Errorf("model drift should break the test; honest node flagged only %d/%d", flagged, trials)
	}
}

func TestDetectSkipsSparseIdentities(t *testing.T) {
	d := newDetector(t)
	rng := rand.New(rand.NewSource(126))
	own := map[vanet.NodeID]*WitnessReport{
		1: honestReport(d, 3, 100, testModel(), rng), // below MinSamples
		2: nil,
	}
	res, err := d.Detect(own, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tested) != 0 || res.Skipped != 1 {
		t.Errorf("tested=%v skipped=%d, want none tested, 1 skipped", res.Tested, res.Skipped)
	}
}

func TestReportFromLog(t *testing.T) {
	d := newDetector(t)
	obs := []vanet.Obs{
		{RSSI: -70, ClaimedDist: 100},
		{RSSI: -80, ClaimedDist: 100},
	}
	r := d.ReportFromLog(obs)
	if len(r.Deviations) != 2 {
		t.Fatalf("got %d deviations", len(r.Deviations))
	}
	expected := d.Deviation(-70, 100)
	if r.Deviations[0] != expected {
		t.Errorf("deviation = %v, want %v", r.Deviations[0], expected)
	}
	// Deviations differ by the RSSI difference.
	if r.Deviations[0]-r.Deviations[1] != 10 {
		t.Error("deviations should preserve RSSI differences")
	}
}
