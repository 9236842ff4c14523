package timeseries

import (
	"math/rand"
	"time"
)

// Generator options produce synthetic RSSI-like series for tests, the DTW
// accuracy experiment, and documentation examples.

// GenRandomWalk returns a bounded random walk starting at start with steps
// of standard deviation stepStd, clamped to [lo, hi]. RSSI traces from a
// moving vehicle look like clipped random walks, which makes this the
// standard synthetic input for DTW accuracy checks.
func GenRandomWalk(n int, start, stepStd, lo, hi float64, samplePeriod time.Duration, rng *rand.Rand) *Series {
	values := make([]float64, n)
	v := start
	for i := range values {
		v += float64(stepStd * rng.NormFloat64())
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		values[i] = v
	}
	return FromValues(values, samplePeriod)
}

// Drop returns a copy of s with each sample independently dropped with
// probability p, simulating packet loss. The detector must cope with
// series of unequal length, which is the paper's stated reason for DTW
// over Euclidean distance.
func Drop(s *Series, p float64, rng *rand.Rand) *Series {
	out := New(s.Len())
	for _, smp := range s.live() {
		if rng.Float64() >= p {
			out.buf = append(out.buf, smp)
		}
	}
	return out
}

// Shift returns a copy of s with a constant dB offset added to every
// sample, modelling a TX-power change (Assumption 3: a malicious node may
// give each Sybil identity a different constant transmission power).
func Shift(s *Series, offsetDB float64) *Series {
	live := s.live()
	out := &Series{buf: make([]Sample, len(live))}
	for i, smp := range live {
		out.buf[i] = Sample{T: smp.T, RSSI: smp.RSSI + offsetDB}
	}
	return out
}
