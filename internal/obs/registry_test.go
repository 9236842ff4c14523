package obs

import (
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the full exposition of a small registry:
// stable ordering (registration order), one HELP/TYPE header per family,
// cumulative histogram buckets with the constant label carried through.
func TestWritePrometheusGolden(t *testing.T) {
	var (
		c Counter
		g Gauge
		h Histogram
	)
	c.Add(42)
	g.Set(-7)
	h.Observe(1000) // bucket 0
	h.Observe(5000) // bucket 3 (4096 < v <= 8192)

	r := NewRegistry("test")
	r.Counter("events_total", "Events seen.", &c)
	r.Gauge("backlog", "Queued items.", &g)
	r.GaugeFunc("workers", "Live workers.", func() int64 { return 3 })
	r.CounterFunc("derived_total", "Derived monotonic value.", func() uint64 { return 9 })
	r.Histogram("latency_ns", "Op latency.", &h, "op", "read")

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	wantPrefix := `# HELP test_events_total Events seen.
# TYPE test_events_total counter
test_events_total 42
# HELP test_backlog Queued items.
# TYPE test_backlog gauge
test_backlog -7
# HELP test_workers Live workers.
# TYPE test_workers gauge
test_workers 3
# HELP test_derived_total Derived monotonic value.
# TYPE test_derived_total counter
test_derived_total 9
# HELP test_latency_ns Op latency.
# TYPE test_latency_ns histogram
test_latency_ns_bucket{op="read",le="1024"} 1
test_latency_ns_bucket{op="read",le="2048"} 1
test_latency_ns_bucket{op="read",le="4096"} 1
test_latency_ns_bucket{op="read",le="8192"} 2
`
	if !strings.HasPrefix(got, wantPrefix) {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want prefix ---\n%s", got, wantPrefix)
	}
	for _, want := range []string{
		"test_latency_ns_bucket{op=\"read\",le=\"+Inf\"} 2\n",
		"test_latency_ns_sum{op=\"read\"} 6000\n",
		"test_latency_ns_count{op=\"read\"} 2\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q in:\n%s", want, got)
		}
	}
	// One header per family, even with multiple labeled members.
	var h2 Histogram
	r.Histogram("latency_ns", "Op latency.", &h2, "op", "write")
	sb.Reset()
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(sb.String(), "# TYPE test_latency_ns histogram"); n != 1 {
		t.Errorf("family header emitted %d times, want once", n)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		fn()
	}
	var c Counter
	var h Histogram
	r := NewRegistry("test")
	r.Counter("x_total", "", &c)
	mustPanic("duplicate counter", func() { r.Counter("x_total", "", &c) })
	mustPanic("label/no-label mix", func() { r.Histogram("x_total", "", &h, "k", "v") })
	r.Histogram("h_ns", "", &h, "k", "a")
	mustPanic("duplicate labeled series", func() { r.Histogram("h_ns", "", &h, "k", "a") })
	mustPanic("bad label arity", func() { r.Histogram("h2_ns", "", &h, "k") })
}
