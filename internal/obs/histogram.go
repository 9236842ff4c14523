package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram bucket layout: fixed log-spaced (power-of-two) buckets over
// nanosecond-scale values. Bucket i covers (upper(i-1), upper(i)] with
// upper(i) = 1<<(histMinShift+i) ns, so the first bucket tops out at
// ~1 µs and the last finite bucket at ~8.6 s; everything beyond lands in
// the +Inf overflow bucket. The layout is compile-time fixed: observing
// is a bit-length computation and one atomic add, snapshots from
// different histograms (or different processes of the same build) merge
// bucket-by-bucket without negotiation.
const (
	histMinShift = 10 // first bucket upper bound: 1<<10 ns ≈ 1 µs
	// NumBuckets is the total bucket count including the +Inf overflow
	// bucket (NumBuckets-1 finite buckets).
	NumBuckets = 25
)

// BucketUpper returns bucket i's inclusive upper bound in nanoseconds;
// the last bucket returns +Inf.
func BucketUpper(i int) float64 {
	if i >= NumBuckets-1 {
		return math.Inf(1)
	}
	return float64(uint64(1) << (histMinShift + uint(i)))
}

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(v uint64) int {
	if v <= 1<<histMinShift {
		return 0
	}
	idx := bits.Len64((v - 1) >> histMinShift)
	if idx > NumBuckets-1 {
		return NumBuckets - 1
	}
	return idx
}

// Histogram is a lock-free histogram of nanosecond-scale values with the
// fixed log-spaced bucket layout above. The zero value is ready to use.
// Observe is two atomic adds; Snapshot reads each cell individually, so
// a snapshot taken under concurrent writes is approximately consistent
// (each cell is exact, the set may straddle a few in-flight updates) —
// fine for telemetry, documented so nobody builds invariants on it.
type Histogram struct {
	sum     atomic.Uint64 // total of observed values, ns
	buckets [NumBuckets]atomic.Uint64
}

// Observe records one value in nanoseconds. Negative values clamp to
// zero (they can only come from clock anomalies; losing them would skew
// rates, crediting them negatively would corrupt the sum).
func (h *Histogram) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.sum.Add(uint64(ns))
	h.buckets[bucketIndex(uint64(ns))].Add(1)
}

// Snapshot returns a point-in-time copy of the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Buckets[i] = c
		s.Count += c
	}
	return s
}

// HistogramSnapshot is a mergeable point-in-time copy of a Histogram.
// Count is derived from the bucket counts, so Count == Σ Buckets always
// holds (the Prometheus _count/_bucket{le="+Inf"} invariant).
type HistogramSnapshot struct {
	Count, Sum uint64
	Buckets    [NumBuckets]uint64
}

// Merge folds o into s bucket-by-bucket; both snapshots must come from
// this package's fixed layout, which is guaranteed by the type.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) in nanoseconds by
// linear interpolation within the covering bucket. Estimates carry the
// bucket layout's resolution (a factor-of-two band); values landing in
// the +Inf bucket report the last finite bound. Returns 0 on an empty
// snapshot, and clamps q into [0, 1].
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		cum += c
		if float64(cum) < target {
			continue
		}
		upper := BucketUpper(i)
		var lower float64
		if i > 0 {
			lower = BucketUpper(i - 1)
		}
		if math.IsInf(upper, 1) {
			return lower
		}
		frac := (target - float64(cum-c)) / float64(c)
		return lower + (upper-lower)*frac
	}
	return BucketUpper(NumBuckets - 2)
}
