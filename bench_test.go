package voiceprint

// The bench harness: one testing.B benchmark per paper table/figure (see
// DESIGN.md's per-experiment index). Each bench runs the corresponding
// experiment at a reduced-but-representative configuration, so
// `go test -bench=. -benchmem` regenerates every artifact's machinery and
// times it; the CLI (cmd/experiments) runs the full-size versions.

import (
	"testing"
	"time"

	"voiceprint/internal/experiments"
	"voiceprint/internal/lda"
)

// benchBoundary is a Figure 10-shaped boundary for benches that need one
// without paying for training in the timed loop.
func benchBoundary() lda.Boundary {
	return lda.Boundary{K: 0.000025, B: 0.0067}
}

// BenchmarkFig5RSSIDistributions regenerates Figure 5 / Observation 1
// (RSSI distributions, distance-estimate errors) at 1-minute periods.
func BenchmarkFig5RSSIDistributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig5(experiments.Fig5Config{
			Seed:               int64(i),
			StationaryDuration: time.Minute,
			MovingSegments:     2,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4DualSlopeFit regenerates Table IV (dual-slope fits).
func BenchmarkTable4DualSlopeFit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Table4(experiments.Table4Config{
			Seed:           int64(i),
			SamplesPerArea: 2000,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6And7SybilSeries regenerates Figures 6-7 / Observation 3
// (Scenario 3 RSSI series and their pairwise distances).
func BenchmarkFig6And7SybilSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig6And7(experiments.Fig6And7Config{
			Seed:     int64(i),
			Duration: time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9DTWExample regenerates the Figure 9 worked DTW example.
func BenchmarkFig9DTWExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10TrainBoundary regenerates Figure 10 (decision-boundary
// training) over a reduced density grid.
func BenchmarkFig10TrainBoundary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig10(experiments.Fig10Config{
			Densities:      []float64{10, 40},
			RunsPerDensity: 1,
			Seed:           int64(1000 + i),
			Duration:       40 * time.Second,
			MaxObservers:   2,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11aDetection regenerates Figure 11a (Voiceprint vs CPVSAD
// across densities, fixed channel) at a reduced sweep.
func BenchmarkFig11aDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig11(experiments.Fig11Config{
			Densities:       []float64{10, 40},
			SeedsPerDensity: 1,
			Seed:            int64(2000 + i),
			Duration:        40 * time.Second,
			Boundary:        benchBoundary(),
			MaxObservers:    3,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11bModelChange regenerates Figure 11b (the same sweep with
// the propagation parameters switched every 30 s).
func BenchmarkFig11bModelChange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig11(experiments.Fig11Config{
			Densities:       []float64{10, 40},
			SeedsPerDensity: 1,
			Seed:            int64(3000 + i),
			Duration:        40 * time.Second,
			ModelChange:     true,
			Boundary:        benchBoundary(),
			MaxObservers:    3,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13FieldTest regenerates Figure 13 / Section VI (the
// four-area field test) at reduced durations.
func BenchmarkFig13FieldTest(b *testing.B) {
	areas := FieldTestAreas()
	for i := range areas {
		areas[i].Duration = 3 * time.Minute
		areas[i].Stops = nil
	}
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig13(experiments.Fig13Config{
			Seed:     int64(i),
			Boundary: benchBoundary(),
			Areas:    areas,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComparePair200 measures one 200-sample series comparison, the
// paper's Section VI-B microbenchmark (0.1995 ms on the IWCU OBU 4.2).
func BenchmarkComparePair200(b *testing.B) {
	res, err := experiments.Complexity(1)
	if err != nil {
		b.Fatal(err)
	}
	_ = res
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Complexity(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetect80Neighbors measures a full detection round over 80
// identities (paper: ~630 ms for 3160 pairs).
func BenchmarkDetect80Neighbors(b *testing.B) {
	run, err := RunHighway(SimParams{DensityPerKm: 40, Seed: 4, Duration: 25 * time.Second, MaxObservers: 1})
	if err != nil {
		b.Fatal(err)
	}
	det, err := NewDetector(DefaultDetectorConfig(benchBoundary()))
	if err != nil {
		b.Fatal(err)
	}
	var log *ReceptionLog
	for _, l := range run.Engine.Logs() {
		log = l
	}
	series := SeriesWindow(log, 0, 20*time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Detect(series, 40); err != nil {
			b.Fatal(err)
		}
	}
}

// detectBenchVariants enumerates the detection-round configurations
// BenchmarkDetectWorkers measures: the sequential pairwise loop, the
// parallel fan-out, and the pooled steady state (parallel with the
// scratch and workspace pools pre-warmed before timing, so the numbers
// show the allocation-free regime a long-running daemon sits in).
var detectBenchVariants = []struct {
	name    string
	workers int
	warm    bool
}{
	{"sequential", 1, false},
	{"parallel", 0, false}, // 0 = GOMAXPROCS
	{"pooled", 0, true},
}

// detectBenchSeries builds the shared 80-identity round input.
func detectBenchSeries(b testing.TB) map[NodeID]*Series {
	b.Helper()
	run, err := RunHighway(SimParams{DensityPerKm: 40, Seed: 4, Duration: 25 * time.Second, MaxObservers: 1})
	if err != nil {
		b.Fatal(err)
	}
	var log *ReceptionLog
	for _, l := range run.Engine.Logs() {
		log = l
	}
	return SeriesWindow(log, 0, 20*time.Second)
}

// BenchmarkDetectWorkers compares the sequential pairwise-comparison
// loop against the parallel one (Config.Workers) on the same 80-identity
// round as BenchmarkDetect80Neighbors; the parallel variants should show
// a wall-clock speedup on multicore hosts while producing bit-identical
// results (see internal/core's determinism test).
func BenchmarkDetectWorkers(b *testing.B) {
	series := detectBenchSeries(b)
	for _, bc := range detectBenchVariants {
		b.Run(bc.name, func(b *testing.B) {
			cfg := DefaultDetectorConfig(benchBoundary())
			cfg.Workers = bc.workers
			det, err := NewDetector(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if bc.warm {
				if _, err := det.Detect(series, 40); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := det.Detect(series, 40); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDTWvsFastDTW regenerates the Section IV-B FastDTW
// accuracy/time trade-off.
func BenchmarkDTWvsFastDTW(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.FastDTWAccuracy(int64(i), 200, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassifierAblation regenerates ablation A1 (boundary trainer
// comparison) on a small harvest.
func BenchmarkClassifierAblation(b *testing.B) {
	harvest := func(seed int64) []experiments.PairSample {
		f10, err := experiments.Fig10(experiments.Fig10Config{
			Densities:      []float64{40},
			RunsPerDensity: 1,
			Seed:           seed,
			Duration:       40 * time.Second,
			MaxObservers:   4,
		})
		if err != nil {
			b.Fatal(err)
		}
		return f10.Points
	}
	train := harvest(10)
	holdout := harvest(11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ClassifierAblation(train, holdout); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSmartAttack regenerates the Section VII future-work ablation
// (power-controlling attacker vs Voiceprint).
func BenchmarkSmartAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.SmartAttack(int64(77+i), 30, 40*time.Second, benchBoundary())
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSCHRate regenerates the Section VII SCH beacon-rate extension
// sweep.
func BenchmarkSCHRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SCHRate(int64(88+i), 30, benchBoundary()); err != nil {
			b.Fatal(err)
		}
	}
}
