// Package radio implements the radio propagation substrate: the free
// space, two-ray ground, log-normal shadowing, Rayleigh and dual-slope
// (paper Equation 1) path-loss models, distance inversion (used by the
// RSSI-localization baselines of Section III), least-squares fitting of
// the dual-slope model (Table IV), and the time-varying parameter switcher
// used to reproduce Figure 11b's "propagation model change".
//
// Conventions: distances in meters, powers in dBm, path loss in dB,
// frequency in Hz. Path loss is positive; received power is
// Pr = Pt + Gt + Gr - PL(d).
package radio

import (
	"errors"
	"math"
	"math/rand"
	"time"
)

// SpeedOfLight in m/s.
const SpeedOfLight = 299792458.0

// DSRCFrequencyHz is channel 178 (CCH) center frequency: 5.890 GHz.
const DSRCFrequencyHz = 5.890e9

// RXSensitivityDBm is the receive sensitivity of the paper's IWCU OBU 4.2
// DSRC radio (Table II): packets below this power are lost, and logged
// RSSI never reads below it.
const RXSensitivityDBm = -95.0

// Model is a (possibly stochastic) path-loss model.
type Model interface {
	// Name identifies the model in tables and experiment output.
	Name() string
	// MeanPathLossDB returns the mean path loss at distance d meters.
	// Implementations clamp d to their reference distance.
	MeanPathLossDB(d float64) float64
	// SamplePathLossDB returns one stochastic path-loss realization at
	// distance d, drawing any fading terms from rng as an independent
	// draw. Deterministic models return the mean.
	SamplePathLossDB(d float64, rng *rand.Rand) float64
	// ShadowSigmaDB returns the standard deviation of the model's
	// large-scale fading term at distance d (0 for deterministic models).
	// The simulation engine uses it to drive a *temporally correlated*
	// shadowing process per transmitter-receiver pair: the physical basis
	// of Observation 3 is that all identities of one physical radio
	// traverse the same channel realization, so their RSSI series share
	// the same shadowing trace while other vehicles' series do not.
	ShadowSigmaDB(d float64) float64
}

// Channel is what the simulation engine consumes: a path-loss process that
// may also depend on simulation time (the Figure 11b scenario switches the
// underlying parameters every 30 s).
type Channel interface {
	// SamplePathLossDB returns a path-loss realization at simulation time
	// t and distance d (independent draw).
	SamplePathLossDB(t time.Duration, d float64, rng *rand.Rand) float64
	// MeanPathLossDB returns the mean path loss at time t and distance d.
	MeanPathLossDB(t time.Duration, d float64) float64
	// ShadowSigmaDB returns the large-scale fading standard deviation at
	// time t and distance d.
	ShadowSigmaDB(t time.Duration, d float64) float64
}

// Static adapts a time-invariant Model to the Channel interface.
type Static struct {
	Model Model
}

var _ Channel = Static{}

// SamplePathLossDB implements Channel.
func (s Static) SamplePathLossDB(_ time.Duration, d float64, rng *rand.Rand) float64 {
	return s.Model.SamplePathLossDB(d, rng)
}

// MeanPathLossDB implements Channel.
func (s Static) MeanPathLossDB(_ time.Duration, d float64) float64 {
	return s.Model.MeanPathLossDB(d)
}

// ShadowSigmaDB implements Channel.
func (s Static) ShadowSigmaDB(_ time.Duration, d float64) float64 {
	return s.Model.ShadowSigmaDB(d)
}

// RxPowerDBm returns the received power for a transmit power (EIRP, dBm)
// and a sampled path loss, with the receive antenna gain folded in.
func RxPowerDBm(txEIRPdBm, rxGainDBi, pathLossDB float64) float64 {
	return txEIRPdBm + rxGainDBi - pathLossDB
}

// Wavelength returns c/f in meters.
func Wavelength(freqHz float64) float64 {
	return SpeedOfLight / freqHz
}

// ErrNotInvertible is returned by EstimateDistance when no distance in the
// search bracket produces the requested path loss.
var ErrNotInvertible = errors.New("radio: path loss not attained in search bracket")

// EstimateDistance inverts a model's mean path loss: it returns the
// distance at which MeanPathLossDB equals pathLossDB, found by bisection
// over [dMin, dMax]. This is what RSSI-localization detection methods
// (Demirbas [14], Lv [16]) do, and what Figure 5 shows to be inaccurate.
func EstimateDistance(m Model, pathLossDB, dMin, dMax float64) (float64, error) {
	if dMin <= 0 || dMax <= dMin {
		return 0, errors.New("radio: invalid search bracket")
	}
	lo, hi := dMin, dMax
	fLo := m.MeanPathLossDB(lo) - pathLossDB
	fHi := m.MeanPathLossDB(hi) - pathLossDB
	if fLo > 0 && fHi > 0 || fLo < 0 && fHi < 0 {
		return 0, ErrNotInvertible
	}
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		fMid := m.MeanPathLossDB(mid) - pathLossDB
		if math.Abs(fMid) < 1e-9 || hi-lo < 1e-6 {
			return mid, nil
		}
		if (fMid > 0) == (fLo > 0) {
			lo, fLo = mid, fMid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}
