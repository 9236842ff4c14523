package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"voiceprint/internal/timeseries"
	"voiceprint/internal/vanet"
)

// pruneConfigs are the cap configurations the pruning equivalence suite
// sweeps: the production adaptive cap, a fixed-cap-only detector, and
// both caps together.
func pruneConfigs() map[string]Config {
	adaptive := DefaultConfig(testBoundary())
	adaptive.MinMedianRSSIDBm = 0
	fixed := adaptive
	fixed.AdaptiveCapKappa = -1 // disable; the fixed cap is the threshold
	fixed.AbsoluteRawCap = 0.05
	both := adaptive
	both.AbsoluteRawCap = 0.05
	return map[string]Config{"adaptive": adaptive, "fixed": fixed, "both": both}
}

// TestLBPruneEquivalence is the pruning contract: with LBPrune on, the
// suspect set, every flag, and the raw/normalized values of every
// unpruned pair are bit-identical to the exact run; pruned pairs carry
// bounds, are marked, and are never flagged.
func TestLBPruneEquivalence(t *testing.T) {
	for name, cfg := range pruneConfigs() {
		t.Run(name, func(t *testing.T) {
			exactDet, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pruneCfg := cfg
			pruneCfg.LBPrune = true
			pruneDet, err := New(pruneCfg)
			if err != nil {
				t.Fatal(err)
			}
			pruned := 0
			for _, seed := range []int64{201, 202, 203} {
				rng := rand.New(rand.NewSource(seed))
				series := sybilCluster(rng, 10)
				exact, err := exactDet.Detect(series, 20)
				if err != nil {
					t.Fatal(err)
				}
				fast, err := pruneDet.Detect(series, 20)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(exact.Suspects, fast.Suspects) {
					t.Fatalf("seed %d: suspects %v != exact %v", seed, fast.Suspects, exact.Suspects)
				}
				if len(fast.Pairs) != len(exact.Pairs) {
					t.Fatalf("seed %d: %d pairs vs %d", seed, len(fast.Pairs), len(exact.Pairs))
				}
				// The pruned run must restore the exact batch extremes, so
				// unpruned pairs match the exact run bit for bit — Raw and
				// Normalized both — whenever any unpruned pair passes its
				// caps (otherwise nothing is flaggable and only Raw is
				// pinned).
				anchor := false
				for _, p := range fast.Pairs {
					if p.Pruned {
						continue
					}
					if cfg.AbsoluteRawCap > 0 && p.Raw > cfg.AbsoluteRawCap {
						continue
					}
					if p.NoiseCap > 0 && p.Raw > p.NoiseCap {
						continue
					}
					anchor = true
				}
				for i, p := range fast.Pairs {
					e := exact.Pairs[i]
					if p.A != e.A || p.B != e.B {
						t.Fatalf("seed %d pair %d: order diverged", seed, i)
					}
					if p.Flagged != e.Flagged {
						t.Fatalf("seed %d pair %d/%d-%d: flagged %v != exact %v",
							seed, i, p.A, p.B, p.Flagged, e.Flagged)
					}
					if p.Pruned {
						pruned++
						if p.Flagged {
							t.Fatalf("seed %d pair %d: pruned pair flagged", seed, i)
						}
						if p.Raw > e.Raw {
							t.Fatalf("seed %d pair %d: bound %v exceeds exact raw %v", seed, i, p.Raw, e.Raw)
						}
						continue
					}
					if p.Raw != e.Raw {
						t.Fatalf("seed %d pair %d: raw %v != exact %v", seed, i, p.Raw, e.Raw)
					}
					if anchor && p.Normalized != e.Normalized {
						t.Fatalf("seed %d pair %d: normalized %v != exact %v", seed, i, p.Normalized, e.Normalized)
					}
				}
				if got := fast.PairsCompared + fast.PairsPrunedLB; got != len(fast.Pairs) {
					t.Fatalf("seed %d: counters sum to %d, want %d", seed, got, len(fast.Pairs))
				}
				if exact.PairsPrunedLB != 0 || exact.PairsCompared != len(exact.Pairs) {
					t.Fatalf("seed %d: exact run counted %d pruned / %d compared", seed,
						exact.PairsPrunedLB, exact.PairsCompared)
				}
			}
			if pruned == 0 {
				t.Error("pruning never fired; the equivalence run proved nothing")
			}
		})
	}
}

// TestDetectParallelDeterminismPruned re-runs the worker-count
// determinism contract with pruning enabled: the LB decisions, the
// branch-and-bound repair and the final pairs must not depend on how
// pairs were scheduled across goroutines.
func TestDetectParallelDeterminismPruned(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	series := sybilCluster(rng, 12)
	detect := func(workers int) *Result {
		t.Helper()
		cfg := DefaultConfig(testBoundary())
		cfg.MinMedianRSSIDBm = 0
		cfg.LBPrune = true
		cfg.Workers = workers
		det, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := det.Detect(series, 20)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := detect(1)
	if seq.PairsPrunedLB == 0 {
		t.Fatal("pruning never fired; determinism run proves nothing")
	}
	for _, workers := range []int{0, 2, 7, 32} {
		par := detect(workers)
		if !reflect.DeepEqual(seq.Pairs, par.Pairs) {
			t.Errorf("workers=%d: pairs diverged from sequential", workers)
		}
		if !reflect.DeepEqual(seq.Suspects, par.Suspects) {
			t.Errorf("workers=%d: suspects diverged", workers)
		}
		if par.PairsPrunedLB != seq.PairsPrunedLB || par.PairsCompared != seq.PairsCompared {
			t.Errorf("workers=%d: counters (%d compared, %d pruned) != sequential (%d, %d)",
				workers, par.PairsCompared, par.PairsPrunedLB, seq.PairsCompared, seq.PairsPrunedLB)
		}
	}
}

// TestCompareWorkersAbortOnError pins the abort path of the parallel
// claim loop: when one pair fails, the pool must stop claiming instead
// of grinding through the remaining thousands of pairs before the round
// can report the failure.
func TestCompareWorkersAbortOnError(t *testing.T) {
	cfg := DefaultConfig(testBoundary())
	cfg.AdaptiveCapKappa = -1
	cfg.Workers = 8
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Build the round scratch by hand: 150 identities sharing one valid
	// series, except identity 0 whose series is empty — the very first
	// claimed pair fails inside the DTW kernel.
	const n = 150
	valid := make([]float64, 120)
	for i := range valid {
		valid[i] = float64(i % 17)
	}
	sc := &roundScratch{}
	for i := 0; i < n; i++ {
		sc.ids = append(sc.ids, vanet.NodeID(i))
		sc.noiseVar = append(sc.noiseVar, 0)
		if i == 0 {
			sc.normalized = append(sc.normalized, nil)
		} else {
			sc.normalized = append(sc.normalized, valid)
		}
	}
	if _, err := d.comparePairs(sc, nil); err == nil {
		t.Fatal("comparePairs should fail on the empty series")
	}
	resolved := 0
	for _, st := range sc.state {
		if st != statePending {
			resolved++
		}
	}
	np := n * (n - 1) / 2
	// Without the abort flag every worker drains the whole queue
	// (resolved == np-1). With it, only pairs already in flight when the
	// error landed complete; anything near the full count means the
	// abort signal is not consulted.
	if resolved > np/4 {
		t.Errorf("%d of %d pairs resolved after the first error; abort is not stopping the pool", resolved, np)
	}
}

// feedBoth streams one synthetic scene into both monitors in lockstep
// so their observation histories are identical.
func feedBoth(t *testing.T, a, b *Monitor, series map[vanet.NodeID]*timeseries.Series) {
	t.Helper()
	ids := make([]vanet.NodeID, 0, len(series))
	maxLen := 0
	for id, s := range series {
		ids = append(ids, id)
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	// Sort for a deterministic interleave (identical for both monitors
	// regardless; sorted for reproducible failures).
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for step := 0; step < maxLen; step++ {
		at := time.Duration(step) * beat
		for _, id := range ids {
			s := series[id]
			if step >= s.Len() {
				continue
			}
			for _, m := range []*Monitor{a, b} {
				if err := m.Observe(id, at, s.At(step).RSSI); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestMonitorParallelComparePruned runs the compare workers the way a
// pruning monitor does in production — several goroutines resolving one
// round's pairs — across incremental rounds at a fixed window end, and
// requires every round to match a sequential monitor fed the same
// beacons. Under -race it also pins that the workers share no mutable
// state beyond their preassigned pair slots.
func TestMonitorParallelComparePruned(t *testing.T) {
	for _, workers := range []int{2, 8} {
		det := DefaultConfig(testBoundary())
		det.MinMedianRSSIDBm = 0
		det.LBPrune = true
		det.Workers = 1
		seq, err := NewMonitor(MonitorConfig{Detector: det, ConfirmWindow: 3, ConfirmNeed: 2})
		if err != nil {
			t.Fatal(err)
		}
		det.Workers = workers
		par, err := NewMonitor(MonitorConfig{Detector: det, ConfirmWindow: 3, ConfirmNeed: 2})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(306))
		feedBoth(t, par, seq, sybilCluster(rng, 9)) // 12 identities, 66 pairs
		end := par.Now()
		pruned := 0
		for round := 0; round < 4; round++ {
			a, err := par.DetectAt(end)
			if err != nil {
				t.Fatal(err)
			}
			b, err := seq.DetectAt(end)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Pairs) != 66 {
				t.Fatalf("workers=%d round %d: %d pairs, want 66", workers, round, len(a.Pairs))
			}
			if !reflect.DeepEqual(a.Pairs, b.Pairs) ||
				!reflect.DeepEqual(a.Suspects, b.Suspects) ||
				!reflect.DeepEqual(a.Confirmed, b.Confirmed) ||
				a.PairsCompared != b.PairsCompared || a.PairsPrunedLB != b.PairsPrunedLB {
				t.Fatalf("workers=%d round %d: parallel monitor diverged from sequential", workers, round)
			}
			pruned += a.PairsPrunedLB
			// One identity gets a fresh beacon at the same window end, so
			// the next round recomputes rather than hitting the
			// unchanged-round cache.
			for _, m := range []*Monitor{par, seq} {
				if err := m.Observe(1, end, -68.5); err != nil {
					t.Fatal(err)
				}
			}
		}
		if pruned == 0 {
			t.Fatalf("workers=%d: pruning never fired; the run proved nothing", workers)
		}
	}
}

// TestMonitorSteadyStateAllocs pins the monitor round's allocation
// budget in the incremental regime: with the monitor's pair buffer
// reused across rounds, a round allocates only the escaping Result
// payload and the few map writes the round history needs.
func TestMonitorSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	det := DefaultConfig(testBoundary())
	det.MinMedianRSSIDBm = 0
	det.LBPrune = true
	det.Workers = 1 // goroutine fan-out itself allocates; pin the core path
	m, err := NewMonitor(MonitorConfig{Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(305))
	feedBoth(t, m, m, sybilCluster(rng, 9)) // feeding one monitor twice doubles samples; harmless
	end := m.Now()
	for i := 0; i < 3; i++ { // warm scratch, workspace pool, pair buffer and view maps
		if _, err := m.DetectAt(end); err != nil {
			t.Fatal(err)
		}
		if err := m.Observe(1, end, -68.5); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := m.Observe(1, end, -68.5); err != nil {
			t.Fatal(err)
		}
		if _, err := m.DetectAt(end); err != nil {
			t.Fatal(err)
		}
	})
	// Measured ~12 at introduction (Result struct, suspect/confirmed
	// maps, considered copy, confirmer update, series append
	// amortization); the budget adds little headroom on purpose — a jump
	// means a buffer stopped being reused.
	if allocs > 16 {
		t.Errorf("incremental monitor round allocates %.0f times, budget is 16", allocs)
	}
}
