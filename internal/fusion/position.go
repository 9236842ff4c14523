// Package fusion adds the multi-signal detection layer on top of the
// Voiceprint DTW pipeline: per-receiver claimed-position consistency
// (this file) and cross-receiver co-observation clique grouping
// (coordinator.go), both plugged in through the core.Signal contract.
//
// The design splits where the evidence lives. A position signal only
// needs one receiver's view — claimed range versus RSSI-implied range —
// so it runs inside each Monitor's fusion round. Clique grouping needs
// every receiver's verdicts at once, so it runs as a service-layer
// RoundCoordinator over a synchronized detection sweep.
package fusion

import (
	"math"
	"sort"
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/radio"
	"voiceprint/internal/stats"
	"voiceprint/internal/vanet"
)

// PositionSignalName is the attribution key of the position signal.
const PositionSignalName = "position"

// The position signal's thresholds. They are fixed: the graded fusion
// posture (SCORECARD_fusion.json) is this one, and `voiceprintd -fusion`
// deploys exactly it.
const (
	// assumedTxPowerDBm is the transmit power the check assumes for
	// every sender (the DSRC beacon default).
	assumedTxPowerDBm = 20
	// minClaimSamples is the fewest claim samples in the window needed
	// to run the mean-deviation test for an identity.
	minClaimSamples = 8
	// minCohort is the fewest testable identities needed before the
	// cross-identity robust centering is meaningful. Below it the round
	// runs only the teleport and correlation tests.
	minCohort = 4
	// alpha is the per-identity significance level of the chi-square
	// deviation test — deliberately strict, because a position flag
	// both convicts directly and anchors clique convictions, so its
	// false positives are the expensive kind.
	alpha = 0.001
	// minScaleDB floors the robust deviation scale, so a freakishly
	// homogeneous round cannot turn noise into significance.
	minScaleDB = 2
	// minJumpM and maxSpeedMS define the teleport test: two consecutive
	// claims further apart than minJumpM whose apparent speed exceeds
	// maxSpeedMS flag the identity (a colluding-handoff position jump).
	// The speed is apparent — claimed motion plus receiver motion — so
	// maxSpeedMS sits above twice the fastest plausible vehicle.
	minJumpM   = 60
	maxSpeedMS = 120
	// corrBucket, minCommonBuckets, corrThreshold and minCorrStdDB tune
	// the residual-correlation test (see Analyze): deviation series are
	// averaged into corrBucket bins, and a pair of identities sharing at
	// least minCommonBuckets bins whose residuals correlate at or above
	// corrThreshold — each with at least minCorrStdDB of variation, so a
	// flat series cannot fake agreement — is flagged.
	corrBucket       = time.Second
	minCommonBuckets = 10
	corrThreshold    = 0.93
	minCorrStdDB     = 0.5
)

// assumedModel is the propagation model used to invert RSSI into an
// expected level at the claimed range: the paper's dual-slope highway
// fit. The monitor does not know the true channel; the robust centering
// absorbs a wrong assumed model as long as it is wrong for everyone
// equally.
var assumedModel radio.Model = radio.DualSlope{Params: radio.HighwayParams}

// PositionSignal checks each identity's claimed positions against the
// RSSI its beacons actually arrived at. For every claim the deviation is
//
//	d = rssi - (assumedTx - PL(claimed range))
//
// i.e. how many dB hotter the beacon is than its claimed range predicts.
// Honest identities deviate by shadowing plus shared model error; a
// Sybil identity claiming an offset position carries a systematic bias.
// The per-identity window means are centered by the round's median and
// scaled by the MAD — self-calibrating against assumed-model mismatch
// (a tunnel shifts every deviation together; the median absorbs it) —
// and the resulting z² is tested chi-square(1) at alpha. Two further
// tests run alongside: a teleport test flags claimed jumps no physical
// vehicle could make, and a residual-correlation test flags identity
// pairs whose deviation series move in lockstep. The latter exploits
// the physics the mean test cannot see — large-scale shadowing is a
// property of the physical link, so two identities sharing one radio
// share one shadow trace — and, because it compares only the samples
// both identities have, it stays sharp for short-lived (churned)
// identities whose partial window overlap defeats whole-window DTW.
type PositionSignal struct{}

// NewPositionSignal builds the signal.
func NewPositionSignal() *PositionSignal { return &PositionSignal{} }

// Name implements core.Signal.
func (s *PositionSignal) Name() string { return PositionSignalName }

// expectedRSSI is the level a beacon from the claimed range should
// arrive at under the assumed model and transmit power.
func (s *PositionSignal) expectedRSSI(claimedRange float64) float64 {
	return radio.RxPowerDBm(assumedTxPowerDBm, 0, assumedModel.MeanPathLossDB(claimedRange))
}

// Analyze implements core.Signal.
func (s *PositionSignal) Analyze(in *core.SignalInput) (*core.SignalResult, error) {
	ids := make([]vanet.NodeID, 0, len(in.Claims))
	for id := range in.Claims {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	res := &core.SignalResult{
		Suspects: make(map[vanet.NodeID]bool),
		Scores:   make(map[vanet.NodeID]float64),
	}

	// Pass 1: per-identity deviation series (bucketed for the
	// correlation test), window mean deviation, and teleport scan.
	type tested struct {
		id      vanet.NodeID
		mean    float64
		buckets []int64
		devs    []float64
	}
	cohort := make([]tested, 0, len(ids))
	teleport := make(map[vanet.NodeID]float64, 4)
	for _, id := range ids {
		claims := in.Claims[id]
		if speed, jumped := s.teleported(claims); jumped {
			teleport[id] = speed
		}
		if len(claims) < minClaimSamples {
			if _, t := teleport[id]; !t {
				res.Skipped++
			}
			continue
		}
		t := tested{id: id}
		t.buckets, t.devs, t.mean = s.bucketize(claims)
		cohort = append(cohort, t)
	}

	// Pass 2: robust centering across the round's identities, then the
	// chi-square deviation test. Skipped entirely below minCohort — with
	// too few identities the median and MAD describe nothing.
	if len(cohort) >= minCohort {
		devs := make([]float64, len(cohort))
		for i := range cohort {
			devs[i] = cohort[i].mean
		}
		med := median(devs)
		for i := range devs {
			devs[i] = math.Abs(devs[i] - med)
		}
		scale := 1.4826 * median(devs)
		if scale < minScaleDB {
			scale = minScaleDB
		}
		for _, t := range cohort {
			z := (t.mean - med) / scale
			chi2 := z * z
			res.Scores[t.id] = chi2
			res.Tested = append(res.Tested, t.id)
			if 1-stats.ChiSquareCDF(chi2, 1) < alpha {
				res.Suspects[t.id] = true
			}
		}
	} else {
		res.Skipped += len(cohort)
	}

	// Pass 3: residual correlation. Two identities whose deviation
	// series track each other this closely over their common support are
	// hearing the same physical shadowing trace — one transmitter.
	for i := 0; i < len(cohort); i++ {
		for j := i + 1; j < len(cohort); j++ {
			r, n := pairCorrelation(cohort[i].buckets, cohort[i].devs,
				cohort[j].buckets, cohort[j].devs, minCorrStdDB)
			if n < minCommonBuckets || r < corrThreshold {
				continue
			}
			for _, t := range [...]tested{cohort[i], cohort[j]} {
				res.Suspects[t.id] = true
				if _, ok := res.Scores[t.id]; !ok {
					res.Scores[t.id] = r
					res.Tested = append(res.Tested, t.id)
				}
			}
		}
	}

	// Teleport verdicts: flagged regardless of the mean test, with the
	// apparent speed as the score when no chi-square was computed.
	tids := make([]vanet.NodeID, 0, len(teleport))
	for id := range teleport {
		tids = append(tids, id)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, id := range tids {
		if _, ok := res.Scores[id]; !ok {
			res.Scores[id] = teleport[id]
			res.Tested = append(res.Tested, id)
		}
		res.Suspects[id] = true
	}
	sort.Slice(res.Tested, func(i, j int) bool { return res.Tested[i] < res.Tested[j] })
	return res, nil
}

// teleported scans consecutive claims for a jump no vehicle could make,
// returning the worst apparent speed seen.
func (s *PositionSignal) teleported(claims []core.ClaimSample) (float64, bool) {
	worst, jumped := 0.0, false
	for i := 1; i < len(claims); i++ {
		jump := math.Hypot(claims[i].X-claims[i-1].X, claims[i].Y-claims[i-1].Y)
		if jump < minJumpM {
			continue
		}
		dt := (claims[i].T - claims[i-1].T).Seconds()
		if dt <= 0 {
			continue
		}
		speed := jump / dt
		if speed >= maxSpeedMS {
			jumped = true
			if speed > worst {
				worst = speed
			}
		}
	}
	return worst, jumped
}

// bucketize averages the claim deviation series into corrBucket bins,
// returning the bins (sorted, because claims arrive under the monotone
// monitor clock), the per-bin mean deviations, and the overall mean.
func (s *PositionSignal) bucketize(claims []core.ClaimSample) ([]int64, []float64, float64) {
	var (
		buckets []int64
		devs    []float64
		counts  []int
		sum     float64
	)
	for _, c := range claims {
		d := c.RSSI - s.expectedRSSI(math.Hypot(c.X, c.Y))
		sum += d
		b := int64(c.T / corrBucket)
		if n := len(buckets); n > 0 && buckets[n-1] == b {
			devs[n-1] += d
			counts[n-1]++
		} else {
			buckets = append(buckets, b)
			devs = append(devs, d)
			counts = append(counts, 1)
		}
	}
	for i := range devs {
		devs[i] /= float64(counts[i])
	}
	return buckets, devs, sum / float64(len(claims))
}

// pairCorrelation is the Pearson correlation of two bucketed series
// over their common bins (a two-pointer intersection of the sorted bin
// lists), plus the number of common bins. A side that varies less than
// minStd over the intersection returns 0 — a flat series cannot attest
// to a shared shadowing trace.
func pairCorrelation(ba []int64, da []float64, bb []int64, db []float64, minStd float64) (float64, int) {
	// Two walks of the same intersection, one for the means and one for
	// the centred sums, in place of copying the common bins out: the
	// summation order is the copy's.
	var mx, my float64
	n := 0
	for i, j := 0, 0; i < len(ba) && j < len(bb); {
		switch {
		case ba[i] < bb[j]:
			i++
		case ba[i] > bb[j]:
			j++
		default:
			mx += da[i]
			my += db[j]
			n++
			i++
			j++
		}
	}
	if n < 2 {
		return 0, n
	}
	fn := float64(n)
	mx /= fn
	my /= fn
	// float64(x*y) rounds each product before its add, so no
	// architecture fuses them into one multiply-add.
	var sxx, syy, sxy float64
	for i, j := 0, 0; i < len(ba) && j < len(bb); {
		switch {
		case ba[i] < bb[j]:
			i++
		case ba[i] > bb[j]:
			j++
		default:
			dx, dy := da[i]-mx, db[j]-my
			sxx += float64(dx * dx)
			syy += float64(dy * dy)
			sxy += float64(dx * dy)
			i++
			j++
		}
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

// median returns the median of xs, reordering the slice. Zero-length
// input returns 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
