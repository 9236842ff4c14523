// Package baseline implements CPVSAD, the Cooperative Position
// Verification based Sybil Attack Detection scheme of Yu, Xu and Xiao
// ("Detecting Sybil attacks in VANETs", JPDC 2013, the paper's [19]),
// which Section V compares Voiceprint against.
//
// CPVSAD is the archetypal model-dependent cooperative detector: a
// verifier collects the RSSI observations for each claimer — its own plus
// those reported by witness vehicles — and statistically tests whether
// they are consistent with the claimer's *claimed* position under a
// predefined log-normal shadowing model (sigma = 3.9 dB, significance
// 0.05 in the paper's comparison). A Sybil identity claims a false
// position while its beacons physically originate at the attacker, so the
// expected-vs-observed power test rejects it.
//
// Two properties matter for the Figure 11 comparison:
//   - cooperation helps with density: more witnesses -> more samples ->
//     more test power, so CPVSAD improves as traffic thickens;
//   - model dependence hurts under parameter drift: when the true channel
//     parameters change (Figure 11b), the expected power is computed from
//     the wrong model and the test breaks down.
package baseline

import (
	"errors"
	"math"

	"voiceprint/internal/radio"
	"voiceprint/internal/stats"
	"voiceprint/internal/vanet"
)

// The verifier's test parameters: the paper's comparison setting.
const (
	// sigmaDB is the shadowing standard deviation assumed by the test.
	sigmaDB = 3.9
	// alpha is the test significance level.
	alpha = 0.05
	// minSamples is the minimum pooled sample count to run the test.
	minSamples = 10
	// assumedTxPowerDBm is the transmit power the verifier assumes for
	// every sender (CPVSAD predates per-identity power spoofing; 20 dBm
	// EIRP is the DSRC default).
	assumedTxPowerDBm = 20
	// effectiveSamplesPerWindow is the number of effectively
	// independent shadowing draws a witness's window provides (shadowing
	// decorrelates with distance moved, ~5 decorrelation lengths per
	// 10 s window at highway speeds).
	effectiveSamplesPerWindow = 5
)

// Detector is a CPVSAD verifier.
type Detector struct {
	// model is the predefined propagation model the verifier assumes.
	model radio.Model
}

// New builds a Detector that assumes model (the paper's comparison uses
// shadowing with sigma 3.9 dB).
func New(model radio.Model) (*Detector, error) {
	if model == nil {
		return nil, errors.New("baseline: CPVSAD needs a propagation model")
	}
	return &Detector{model: model}, nil
}

// WitnessReport is what one witness contributes for one claimer: each
// received beacon's RSSI and the distance from the *witness* to the
// claimer's claimed position at reception time.
type WitnessReport struct {
	// Deviations holds, per received beacon, the observed RSSI minus the
	// RSSI expected at the claimed position under the verifier's model.
	// Pooling deviations (rather than raw RSSI) lets reports from
	// witnesses at different ranges share one z-test.
	Deviations []float64
}

// Result is one CPVSAD round outcome.
type Result struct {
	// Suspects holds identities whose position test rejected.
	Suspects map[vanet.NodeID]bool
	// Tested lists identities with enough pooled samples.
	Tested []vanet.NodeID
	// Skipped counts identities with too few samples.
	Skipped int
}

// expectedRSSI is the model's predicted received power at distance d.
func (d *Detector) expectedRSSI(dist float64) float64 {
	return radio.RxPowerDBm(assumedTxPowerDBm, 0, d.model.MeanPathLossDB(dist))
}

// Deviation returns observed minus expected RSSI for one beacon heard at
// claimedDist; witnesses use it to build reports.
func (d *Detector) Deviation(rssi, claimedDist float64) float64 {
	return rssi - d.expectedRSSI(claimedDist)
}

// Detect runs the cooperative position test for each claimer. Each
// witness (the verifier included) contributes its window-mean deviation
// for the claimer; under H0 (honest claim) that mean is ~N(0, sigma^2) —
// one draw per witness, because shadowing is correlated within a window,
// so averaging beacons does not shrink the shadow term. Each witness mean
// yields a two-sided p-value, and the per-claimer verdict combines them
// with Fisher's method: evidence accumulates across witnesses regardless
// of the *sign* of each witness's deviation (a Sybil's false position
// reads too near to some witnesses and too far to others).
//
// This is what makes CPVSAD's detection rate grow with traffic density
// (more witnesses, more combined power) — the Figure 11a trend — while a
// stale propagation model biases every witness's expected power and
// poisons the combination (the Figure 11b collapse).
func (d *Detector) Detect(own map[vanet.NodeID]*WitnessReport, witnesses []map[vanet.NodeID]*WitnessReport) (*Result, error) {
	res := &Result{Suspects: make(map[vanet.NodeID]bool)}
	pvalues := make(map[vanet.NodeID][]float64)
	samples := make(map[vanet.NodeID]int)
	merge := func(reports map[vanet.NodeID]*WitnessReport) {
		for id, r := range reports {
			if r == nil || len(r.Deviations) == 0 {
				continue
			}
			mean := stats.Mean(r.Deviations)
			nEff := effectiveSamplesPerWindow
			if len(r.Deviations) < nEff {
				nEff = len(r.Deviations)
			}
			z := mean * sqrtFloat(float64(nEff)) / sigmaDB
			p := 2 * (1 - stats.NormalCDF(abs(z), 0, 1))
			pvalues[id] = append(pvalues[id], p)
			samples[id] += len(r.Deviations)
		}
	}
	merge(own)
	for _, w := range witnesses {
		merge(w)
	}
	for id, ps := range pvalues {
		if samples[id] < minSamples {
			res.Skipped++
			continue
		}
		res.Tested = append(res.Tested, id)
		verdict, err := stats.FisherCombine(ps, alpha)
		if err != nil {
			return nil, err
		}
		if verdict.Reject {
			res.Suspects[id] = true
		}
	}
	return res, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func sqrtFloat(x float64) float64 { return math.Sqrt(x) }

// ReportFromLog converts one receiver's identity log window into a
// WitnessReport under this verifier's model. It is shared by the verifier
// (its own observations) and by witnesses.
func (d *Detector) ReportFromLog(obs []vanet.Obs) *WitnessReport {
	r := &WitnessReport{Deviations: make([]float64, 0, len(obs))}
	for _, o := range obs {
		r.Deviations = append(r.Deviations, d.Deviation(o.RSSI, o.ClaimedDist))
	}
	return r
}
