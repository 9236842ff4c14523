// Package gps models the position error of the paper's rooftop GPS
// receivers (Table II: 50-channel A-GPS, horizontal accuracy < 2.5 m
// autonomous, < 2.0 m SBAS). Consumer GPS error is not white: it is a
// slowly wandering bias (atmospheric and multipath terms, correlated over
// tens of seconds) plus small per-fix jitter. Claimed positions in
// beacons flow through this model when the simulation enables it, which
// matters to position-verification baselines (Sybil offsets below the
// GPS error floor are undetectable by construction).
package gps

import (
	"errors"
	"math"
	"math/rand"
	"time"
)

// Params parameterize a receiver's error process.
type Params struct {
	// BiasStdM is the stationary standard deviation of the wandering
	// bias per axis. Zero means 1.5 m (a ~2.1 m horizontal RMS, matching
	// the Table II "< 2.5 m" figure).
	BiasStdM float64
	// BiasTau is the bias correlation time; zero means 30 s.
	BiasTau time.Duration
	// JitterStdM is the per-fix white jitter per axis; zero means 0.4 m.
	JitterStdM float64
}

// withDefaults fills zero fields.
func (p Params) withDefaults() Params {
	if p.BiasStdM == 0 {
		p.BiasStdM = 1.5
	}
	if p.BiasTau == 0 {
		p.BiasTau = 30 * time.Second
	}
	if p.JitterStdM == 0 {
		p.JitterStdM = 0.4
	}
	return p
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.BiasStdM < 0 || p.JitterStdM < 0 {
		return errors.New("gps: error magnitudes must be non-negative")
	}
	if p.BiasTau < 0 {
		return errors.New("gps: bias correlation time must be non-negative")
	}
	return nil
}

// Receiver is one GPS unit's error process. Create with NewReceiver; not
// safe for concurrent use.
type Receiver struct {
	params Params
	rng    *rand.Rand

	biasX, biasY float64
	init         bool
	last         time.Duration
}

// NewReceiver builds a receiver with its own error state.
func NewReceiver(p Params, seed int64) (*Receiver, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Receiver{params: p.withDefaults(), rng: rand.New(rand.NewSource(seed))}, nil
}

// Fix returns the measured position for a true position at simulation
// time t. Calls must not go backwards in time.
func (r *Receiver) Fix(t time.Duration, trueX, trueY float64) (x, y float64) {
	p := r.params
	if !r.init {
		r.biasX = p.BiasStdM * r.rng.NormFloat64()
		r.biasY = p.BiasStdM * r.rng.NormFloat64()
		r.init = true
	} else if dt := t - r.last; dt > 0 && p.BiasTau > 0 {
		rho := math.Exp(-dt.Seconds() / p.BiasTau.Seconds())
		q := p.BiasStdM * math.Sqrt(1-rho*rho)
		r.biasX = rho*r.biasX + q*r.rng.NormFloat64()
		r.biasY = rho*r.biasY + q*r.rng.NormFloat64()
	}
	r.last = t
	return trueX + r.biasX + p.JitterStdM*r.rng.NormFloat64(),
		trueY + r.biasY + p.JitterStdM*r.rng.NormFloat64()
}
