package obs

import (
	"math"
	"sync"
	"testing"
)

// TestBucketBoundaries pins the le semantics of the fixed layout: a
// value exactly on a bucket's upper bound counts into that bucket, one
// past it counts into the next.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0},
		{1, 0},
		{1024, 0}, // exactly the first upper bound
		{1025, 1}, // one past it
		{2048, 1}, // second upper bound
		{2049, 2}, //
		{1 << 20, 10},
		{1<<20 + 1, 11},
		{1 << 33, NumBuckets - 2},   // last finite upper bound (~8.6 s)
		{1<<33 + 1, NumBuckets - 1}, // overflow
		{math.MaxInt64, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(uint64(c.v)); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	for i := 0; i < NumBuckets-1; i++ {
		upper := BucketUpper(i)
		if got := bucketIndex(uint64(upper)); got != i {
			t.Errorf("value at upper bound %v landed in bucket %d, want %d", upper, got, i)
		}
		if got := bucketIndex(uint64(upper) + 1); got != i+1 {
			t.Errorf("value past upper bound %v landed in bucket %d, want %d", upper, got, i+1)
		}
	}
	if !math.IsInf(BucketUpper(NumBuckets-1), 1) {
		t.Error("last bucket upper bound must be +Inf")
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	var h Histogram
	h.Observe(500)     // bucket 0
	h.Observe(-17)     // clamps to 0, bucket 0
	h.Observe(3000)    // bucket 2 (2048 < v <= 4096)
	h.Observe(1 << 40) // overflow bucket
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("Count = %d, want 4", s.Count)
	}
	if s.Sum != 500+0+3000+1<<40 {
		t.Fatalf("Sum = %d", s.Sum)
	}
	if s.Buckets[0] != 2 || s.Buckets[2] != 1 || s.Buckets[NumBuckets-1] != 1 {
		t.Fatalf("bucket spread = %v", s.Buckets)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 10; i++ {
		a.Observe(int64(i) * 1000)
		b.Observe(int64(i) * 100_000)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	merged := sa
	merged.Merge(sb)
	if merged.Count != sa.Count+sb.Count {
		t.Errorf("merged Count = %d", merged.Count)
	}
	if merged.Sum != sa.Sum+sb.Sum {
		t.Errorf("merged Sum = %d", merged.Sum)
	}
	var total uint64
	for i := range merged.Buckets {
		if merged.Buckets[i] != sa.Buckets[i]+sb.Buckets[i] {
			t.Errorf("bucket %d = %d, want %d", i, merged.Buckets[i], sa.Buckets[i]+sb.Buckets[i])
		}
		total += merged.Buckets[i]
	}
	if total != merged.Count {
		t.Errorf("Σ buckets = %d != Count %d", total, merged.Count)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if q := h.Snapshot().Quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", q)
	}
	// 100 observations spread uniformly over (0, 1ms]: the median
	// estimate must land within a factor-of-two band of 500 µs, p99
	// within a band of 990 µs (bucket-resolution estimates).
	for i := 1; i <= 100; i++ {
		h.Observe(int64(i) * 10_000) // 10 µs .. 1 ms
	}
	s := h.Snapshot()
	if p50 := s.Quantile(0.50); p50 < 250_000 || p50 > 1_000_000 {
		t.Errorf("p50 = %v ns, want within (250µs, 1ms]", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 500_000 || p99 > 1_100_000 {
		t.Errorf("p99 = %v ns, want near 1ms", p99)
	}
	if p0 := s.Quantile(0); p0 <= 0 || p0 > 20_000 {
		t.Errorf("p0 = %v ns, want within the first occupied bucket", p0)
	}
	if q := s.Quantile(1); q < s.Quantile(0.99) {
		t.Errorf("quantiles must be monotone: p100 %v < p99 %v", q, s.Quantile(0.99))
	}
	// Everything in the overflow bucket reports the last finite bound.
	var inf Histogram
	inf.Observe(1 << 50)
	if q := inf.Snapshot().Quantile(0.5); q != BucketUpper(NumBuckets-2) {
		t.Errorf("overflow quantile = %v, want last finite bound %v", q, BucketUpper(NumBuckets-2))
	}
	// NaN q must not panic or poison.
	if q := s.Quantile(math.NaN()); q != 0 {
		t.Errorf("Quantile(NaN) = %v, want 0", q)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines;
// run under -race this doubles as the lock-freedom proof, and the final
// snapshot must conserve every observation.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 10_000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Errorf("Count = %d, want %d", s.Count, goroutines*per)
	}
	var total uint64
	for _, c := range s.Buckets {
		total += c
	}
	if total != s.Count {
		t.Errorf("Σ buckets = %d != Count %d", total, s.Count)
	}
}

// TestInstrumentAllocs pins every hot-path instrument update at zero
// allocations: the daemon calls them per beacon, per journal write and
// per round stage.
func TestInstrumentAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	var (
		c Counter
		g Gauge
		h Histogram
	)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Counter.Add", func() { c.Add(1000) }},
		{"Counter.Inc", func() { c.Inc() }},
		{"Gauge.Set", func() { g.Set(1 << 20) }},
		{"Gauge.Add", func() { g.Add(-1000) }},
		{"Histogram.Observe", func() { h.Observe(1_500_000) }},
	} {
		if got := testing.AllocsPerRun(200, tc.fn); got != 0 {
			t.Errorf("%s: %v allocs, want 0", tc.name, got)
		}
	}
}
