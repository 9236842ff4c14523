package voiceprint

// BenchmarkRoundScheduler measures one scheduler-driven detection round
// end to end — registry lookup, window extraction, normalization,
// pairwise FastDTW, LDA + confirmation, metrics — the unit the daemon
// repeats every period. Each iteration first feeds one fresh beacon per
// identity and advances the window end by one beacon interval, the way
// a live receiver's rounds move. CI runs it with -bench Round (see
// .github/workflows/ci.yml).

import (
	"testing"
	"time"

	"voiceprint/internal/service"
	"voiceprint/internal/vanet"
)

const (
	roundBenchIdentities = 40
	roundBenchRecv       = vanet.NodeID(9001)
	roundBenchBeat       = 100 * time.Millisecond
)

// roundBenchSetup builds a registry with one receiver tracking
// roundBenchIdentities synthetic vehicles, pre-filled with a 20 s
// window, plus a single-worker scheduler over it.
func roundBenchSetup(tb testing.TB) (*service.Registry, *service.Scheduler, time.Duration) {
	tb.Helper()
	m := &service.Metrics{}
	cfg := DefaultDetectorConfig(benchBoundary())
	cfg.MinMedianRSSIDBm = 0 // keep every synthetic vehicle in view
	reg, err := service.NewRegistry(service.RegistryConfig{
		Monitor: MonitorConfig{Detector: cfg},
	}, m)
	if err != nil {
		tb.Fatal(err)
	}
	sched, err := service.NewScheduler(reg, m, 1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	steps := int(cfg.ObservationTime / roundBenchBeat)
	var now time.Duration
	for i := 0; i < steps; i++ {
		now = time.Duration(i) * roundBenchBeat
		feedRoundBench(tb, reg, now, i)
	}
	return reg, sched, now
}

// feedRoundBench sends one beacon per identity at stream time now: a
// deterministic per-identity fading shape (no PRNG in the timed loop).
func feedRoundBench(tb testing.TB, reg *service.Registry, now time.Duration, step int) {
	tb.Helper()
	for id := 1; id <= roundBenchIdentities; id++ {
		// Distinct slopes and phases per identity, wiggle per step: enough
		// signal shape for DTW to chew on without a channel simulation.
		rssi := -55 - float64(id%13) - 0.5*float64((step+id)%17)
		err := reg.Observe(service.Observation{
			Recv:   roundBenchRecv,
			Sender: vanet.NodeID(id),
			TMs:    now.Milliseconds(),
			RSSI:   rssi,
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkRoundScheduler(b *testing.B) {
	reg, sched, now := roundBenchSetup(b)
	// Warm one round so the detector's scratch and workspace pools exist:
	// the numbers should show the steady state a long-running daemon sits
	// in, not first-round pool growth.
	if out := sched.DetectOne(roundBenchRecv, now); out.Err != nil {
		b.Fatal(out.Err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += roundBenchBeat
		feedRoundBench(b, reg, now, i)
		if out := sched.DetectOne(roundBenchRecv, now); out.Err != nil {
			b.Fatal(out.Err)
		}
	}
}
