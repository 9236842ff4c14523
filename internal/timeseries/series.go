// Package timeseries provides the RSSI time-series container and the two
// normalizations the Voiceprint detector applies around DTW comparison:
// the enhanced Z-score of Equation 7 (which removes per-identity TX-power
// offsets) and the min-max normalization of Equation 8 (which maps a batch
// of DTW distances into [0,1] before thresholding).
package timeseries

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"voiceprint/internal/stats"
)

// Sample is one timestamped RSSI observation. T is the offset from the
// start of the observation window.
type Sample struct {
	T    time.Duration
	RSSI float64 // dBm
}

// Series is an ordered sequence of RSSI samples recorded for a single
// sender identity during one observation window. Samples must be
// non-decreasing in time; packet loss shows up as gaps, which is why the
// detector compares series with DTW rather than pointwise distance.
//
// The container is ring-buffer-backed for streaming use: Append writes
// at the tail, TrimBefore retires the head in place (amortized O(1), no
// allocation), and WindowViewInto hands out zero-copy sub-series. A monitor
// tracking an identity over a long drive therefore reuses one backing
// array round after round instead of rebuilding it.
type Series struct {
	// buf is the backing array; the live samples are buf[head:]. Trimming
	// advances head; a compaction copies the live tail to the front once
	// the dead prefix dominates, so the same allocation keeps serving.
	buf  []Sample
	head int
}

// New returns an empty series with capacity for n samples.
func New(n int) *Series {
	return &Series{buf: make([]Sample, 0, n)}
}

// FromValues builds a series from evenly spaced values at the given period
// starting at offset zero. It is the common constructor in tests and for
// the paper's worked DTW example.
func FromValues(values []float64, period time.Duration) *Series {
	s := New(len(values))
	for i, v := range values {
		s.buf = append(s.buf, Sample{T: time.Duration(i) * period, RSSI: v})
	}
	return s
}

// live returns the live samples.
func (s *Series) live() []Sample { return s.buf[s.head:] }

// Append adds a sample. It returns an error when t would go backwards in
// time, which indicates a corrupted trace.
func (s *Series) Append(t time.Duration, rssi float64) error {
	if n := len(s.buf); n > s.head && t < s.buf[n-1].T {
		return backwardsErr(t, s.buf[n-1].T)
	}
	s.buf = append(s.buf, Sample{T: t, RSSI: rssi})
	return nil
}

// backwardsErr formats the out-of-order-sample failure off the
// per-sample hot path: fmt's argument boxing is a heap allocation.
// Kept out of line so the boxing stays in this cold frame instead of
// being inlined into Append, which runs once per sample.
//
//go:noinline
func backwardsErr(t, last time.Duration) error {
	return fmt.Errorf("timeseries: sample at %v precedes last sample at %v", t, last)
}

// ErrNonFiniteRSSI is returned by AppendChecked for NaN or infinite RSSI.
var ErrNonFiniteRSSI = errors.New("timeseries: non-finite RSSI")

// AppendChecked is the finite-checked ingest entry point: it rejects NaN
// and infinite RSSI before appending, so a single bad sample cannot
// poison every statistic later computed over the series. Boundary code
// (trace loaders, simulators) must use it — or core.Monitor.Observe,
// which performs the same validation — rather than raw Append; the
// nonfinite analyzer in internal/analysis enforces this.
func (s *Series) AppendChecked(t time.Duration, rssi float64) error {
	if math.IsNaN(rssi) || math.IsInf(rssi, 0) {
		return nonFiniteErr(rssi, t)
	}
	return s.Append(t, rssi)
}

// nonFiniteErr formats the rejected-sample failure off the per-sample
// hot path (see backwardsErr).
//
//go:noinline
func nonFiniteErr(rssi float64, t time.Duration) error {
	return fmt.Errorf("%w: %v at %v", ErrNonFiniteRSSI, rssi, t)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.buf) - s.head }

// At returns the i-th sample.
func (s *Series) At(i int) Sample { return s.buf[s.head+i] }

// Values returns a copy of the RSSI values in order.
func (s *Series) Values() []float64 {
	return s.AppendValues(make([]float64, 0, s.Len()))
}

// AppendValues appends the RSSI values in order to dst and returns the
// extended slice. Scratch-conscious callers use it to collect values
// into a reused arena instead of allocating per call.
func (s *Series) AppendValues(dst []float64) []float64 {
	for _, smp := range s.live() {
		dst = append(dst, smp.RSSI)
	}
	return dst
}

// Mean returns the mean RSSI of the series.
func (s *Series) Mean() float64 {
	live := s.live()
	if len(live) == 0 {
		return 0
	}
	var sum float64
	for _, smp := range live {
		sum += smp.RSSI
	}
	return sum / float64(len(live))
}

// StdDev returns the population standard deviation of the series RSSI.
// Its sigma scales every Z-scored value the detector compares, so the
// square is written float64(d*d): no architecture may fuse it into the
// add, and the result has the same bits everywhere.
func (s *Series) StdDev() float64 {
	live := s.live()
	if len(live) == 0 {
		return 0
	}
	mu := s.Mean()
	var sum float64
	for _, smp := range live {
		d := smp.RSSI - mu
		sum += float64(d * d)
	}
	return math.Sqrt(sum / float64(len(live)))
}

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series {
	live := s.live()
	cp := &Series{buf: make([]Sample, len(live))}
	copy(cp.buf, live)
	return cp
}

// searchT returns the index of the first live sample with T >= t (by
// binary search; samples are time-ordered).
func (s *Series) searchT(t time.Duration) int {
	live := s.live()
	return sort.Search(len(live), func(i int) bool { return live[i].T >= t })
}

// Window returns the sub-series of samples with T in [from, to). The
// returned series is a copy; bounds are found by binary search.
func (s *Series) Window(from, to time.Duration) *Series {
	lo, hi := s.windowBounds(from, to)
	out := &Series{buf: make([]Sample, hi-lo)}
	copy(out.buf, s.live()[lo:hi])
	return out
}

// windowBounds returns the live-index half-open range [lo, hi) of
// samples with T in [from, to).
func (s *Series) windowBounds(from, to time.Duration) (lo, hi int) {
	if to <= from {
		return 0, 0
	}
	return s.searchT(from), s.searchT(to)
}

// WindowViewInto repoints dst at the [from, to) window of the receiver
// as a zero-copy view sharing the receiver's backing array, and returns
// dst. The view is read-only and valid until the receiver is next
// mutated (Append or TrimBefore); appending to a view corrupts the
// parent. It allocates nothing: monitors keep one reusable view header
// per tracked identity and rebuild it each detection round.
func (s *Series) WindowViewInto(from, to time.Duration, dst *Series) *Series {
	lo, hi := s.windowBounds(from, to)
	dst.buf = s.live()[lo:hi:hi]
	dst.head = 0
	return dst
}

// TrimBefore drops every sample with T < t, in place. The head advances
// without copying; once the dead prefix outgrows the live tail the live
// samples are compacted to the front of the same backing array, so
// steady-state trimming is amortized O(1) per retired sample with zero
// allocation. Any outstanding views are invalidated.
func (s *Series) TrimBefore(t time.Duration) {
	s.head += s.searchT(t)
	if s.head >= 32 && s.head > len(s.buf)-s.head {
		n := copy(s.buf, s.buf[s.head:])
		s.buf = s.buf[:n]
		s.head = 0
	}
}

// ErrTooShort is returned when a series has too few samples for an
// operation (e.g. Z-score normalization of fewer than 2 samples).
var ErrTooShort = errors.New("timeseries: series too short")

// ZScoreNormalize applies the paper's enhanced Z-score (Equation 7):
//
//	RSSI' = (RSSI - mu) / (3 * sigma)
//
// which places ~99.7% of values of a normal sample inside (-1, 1) while
// preserving the shape of the series. A constant series (sigma == 0)
// normalizes to all zeros, since its shape carries no information.
// The receiver is not modified; a new series is returned.
func (s *Series) ZScoreNormalize() (*Series, error) {
	live := s.live()
	if len(live) < 2 {
		return nil, ErrTooShort
	}
	mu := s.Mean()
	sigma := s.StdDev()
	out := &Series{buf: make([]Sample, len(live))}
	for i, smp := range live {
		v := 0.0
		if sigma > 0 {
			v = (smp.RSSI - mu) / (3 * sigma)
		}
		out.buf[i] = Sample{T: smp.T, RSSI: v}
	}
	return out, nil
}

// AppendZScored appends the Equation 7 Z-scored values (without the
// timestamps) to dst and returns the extended slice: the allocation-free
// counterpart of ZScoreNormalize().Values() for the detector's hot path.
func (s *Series) AppendZScored(dst []float64) ([]float64, error) {
	live := s.live()
	if len(live) < 2 {
		return dst, ErrTooShort
	}
	mu := s.Mean()
	sigma := s.StdDev()
	for _, smp := range live {
		v := 0.0
		if sigma > 0 {
			v = (smp.RSSI - mu) / (3 * sigma)
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// MinMaxNormalizeInto maps xs into [0,1] by the paper's Equation 8:
//
//	x' = (x - min) / (max - min)
//
// When all values are equal the result is all zeros (the paper's
// normalization is undefined there; zero is the conservative choice, as it
// classifies every pair as maximally similar, which matches the situation
// of a single repeated distance). It returns ErrEmptyBatch for an empty
// input. NaN or Inf inputs return an error: they indicate an upstream bug.
// It writes into dst, which must have len(xs) elements already (it is
// fully overwritten), so the detector min-maxes a round's distance batch
// into reused scratch.
func MinMaxNormalizeInto(dst, xs []float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmptyBatch
	}
	if len(dst) != len(xs) {
		return nil, fmt.Errorf("timeseries: min-max dst has %d slots for %d values", len(dst), len(xs))
	}
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("timeseries: min-max input contains %v", x)
		}
	}
	lo, hi, err := stats.MinMax(xs)
	if err != nil {
		return nil, err
	}
	// Inputs are verified finite above, so not-strictly-less is exactly
	// the all-identical case without a raw float equality.
	if !(lo < hi) {
		for i := range dst {
			dst[i] = 0
		}
		return dst, nil
	}
	for i, x := range xs {
		dst[i] = (x - lo) / (hi - lo)
	}
	return dst, nil
}

// ErrEmptyBatch is returned by MinMaxNormalizeInto for an empty input.
var ErrEmptyBatch = errors.New("timeseries: empty batch")
