package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"voiceprint/internal/dtw"
	"voiceprint/internal/lda"
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

// checkPruneVsExact is the pruning contract for one round at density:
// with LBPrune on, the suspect set, every flag, and the raw/normalized
// values of every unpruned pair are bit-identical to the exact run;
// pruned pairs carry bounds at or below the exact raw, are marked, are
// never flagged, and are counted. The stored batch min and max are the
// exact run's bits, and unpruned pairs attain them. It also checks the
// boundary-derived threshold T: a pair whose bound sits at or below its
// cap cutoff was abandoned against T, so its bound exceeds T, and T is
// at least every raw distance whose exact Eq 8 distance passes the
// boundary. It returns the number of pairs left pruned.
func checkPruneVsExact(t *testing.T, cfg Config, density float64, exact, fast *Result) int {
	t.Helper()
	if !reflect.DeepEqual(exact.Suspects, fast.Suspects) {
		t.Fatalf("suspects %v != exact %v", fast.Suspects, exact.Suspects)
	}
	if len(fast.Pairs) != len(exact.Pairs) {
		t.Fatalf("%d pairs vs %d", len(fast.Pairs), len(exact.Pairs))
	}
	lo, hi := batchExtremes(exact.Pairs)
	if flo, fhi := batchExtremes(fast.Pairs); math.Float64bits(flo) != math.Float64bits(lo) ||
		math.Float64bits(fhi) != math.Float64bits(hi) {
		t.Fatalf("stored batch extremes [%v, %v] != exact [%v, %v]", flo, fhi, lo, hi)
	}
	attainsLo, attainsHi := false, false
	for _, p := range fast.Pairs {
		if !p.Pruned {
			attainsLo = attainsLo || p.Raw == lo
			attainsHi = attainsHi || p.Raw == hi
		}
	}
	if !attainsLo || !attainsHi {
		t.Fatalf("batch extremes [%v, %v] not attained by unpruned pairs (min %v, max %v)", lo, hi, attainsLo, attainsHi)
	}
	passing, abandonedT := math.Inf(-1), math.Inf(1)
	for i, e := range exact.Pairs {
		if cfg.Boundary.IsSybilPair(density, e.Normalized) {
			passing = max(passing, e.Raw)
		}
		p := fast.Pairs[i]
		capCut := math.Inf(1)
		if cfg.AdaptiveCapKappa > 0 && p.NoiseCap > 0 {
			capCut = p.NoiseCap
		} else if cfg.AbsoluteRawCap > 0 {
			capCut = cfg.AbsoluteRawCap
		}
		if p.Pruned && p.Raw <= capCut {
			abandonedT = min(abandonedT, p.Raw)
		}
	}
	if passing >= abandonedT {
		t.Fatalf("a pair passing the boundary has raw %v, but a pair was abandoned against T at %v", passing, abandonedT)
	}
	pruned := 0
	for i, p := range fast.Pairs {
		e := exact.Pairs[i]
		if p.A != e.A || p.B != e.B {
			t.Fatalf("pair %d: order diverged", i)
		}
		if p.Flagged != e.Flagged {
			t.Fatalf("pair %d/%d-%d: flagged %v != exact %v", i, p.A, p.B, p.Flagged, e.Flagged)
		}
		if p.Pruned {
			pruned++
			if p.Flagged {
				t.Fatalf("pair %d: pruned pair flagged", i)
			}
			if p.Raw > e.Raw {
				t.Fatalf("pair %d: bound %v exceeds exact raw %v", i, p.Raw, e.Raw)
			}
			continue
		}
		if math.Float64bits(p.Raw) != math.Float64bits(e.Raw) {
			t.Fatalf("pair %d: raw %v != exact %v", i, p.Raw, e.Raw)
		}
		if math.Float64bits(p.Normalized) != math.Float64bits(e.Normalized) {
			t.Fatalf("pair %d: normalized %v != exact %v", i, p.Normalized, e.Normalized)
		}
	}
	if fast.PairsPrunedLB != pruned {
		t.Fatalf("PairsPrunedLB %d, but %d pairs are marked Pruned", fast.PairsPrunedLB, pruned)
	}
	if got := fast.PairsCompared + fast.PairsPrunedLB; got != len(fast.Pairs) {
		t.Fatalf("counters sum to %d, want %d", got, len(fast.Pairs))
	}
	if exact.PairsPrunedLB != 0 || exact.PairsCompared != len(exact.Pairs) {
		t.Fatalf("exact run counted %d pruned / %d compared", exact.PairsPrunedLB, exact.PairsCompared)
	}
	return pruned
}

// batchExtremes returns the smallest and largest stored Raw, the min and
// max the Equation 8 normalization divides by.
func batchExtremes(pairs []PairDistance) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, p := range pairs {
		lo, hi = min(lo, p.Raw), max(hi, p.Raw)
	}
	return lo, hi
}

// detectBoth runs one round with pruning off and on.
func detectBoth(t *testing.T, cfg Config, series map[vanet.NodeID]*timeseries.Series, density float64) (exact, fast *Result) {
	t.Helper()
	for _, prune := range []bool{false, true} {
		c := cfg
		c.LBPrune = prune
		det, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := det.Detect(series, density)
		if err != nil {
			t.Fatal(err)
		}
		if prune {
			fast = res
		} else {
			exact = res
		}
	}
	return exact, fast
}

// TestLBPruneEquivalence runs the pruning contract over the cap
// configurations on Sybil-cluster rounds.
func TestLBPruneEquivalence(t *testing.T) {
	for name, cfg := range pruneConfigs() {
		t.Run(name, func(t *testing.T) {
			pruned := 0
			for _, seed := range []int64{201, 202, 203} {
				rng := rand.New(rand.NewSource(seed))
				exact, fast := detectBoth(t, cfg, sybilCluster(rng, 10), 20)
				pruned += checkPruneVsExact(t, cfg, 20, exact, fast)
			}
			if pruned == 0 {
				t.Error("pruning never fired; the equivalence run proved nothing")
			}
		})
	}
}

// fuzzRound synthesizes a round of n identities over a few physical
// transmitters: identities that share one carry Sybil-like series, and
// a zero noise level leaves the shared shadowed trend alone, which the
// AR(1) estimator reads as zero noise (an uncapped pair).
func fuzzRound(rng *rand.Rand, n int) map[vanet.NodeID]*timeseries.Series {
	sources := make([]*timeseries.Series, 1+rng.Intn(n))
	for i := range sources {
		sources[i] = withShadow(vehicleTrace(rng), 3.0, rng)
	}
	series := make(map[vanet.NodeID]*timeseries.Series, n)
	for id := 0; id < n; id++ {
		src := timeseries.Shift(sources[rng.Intn(len(sources))], 6*rng.Float64()-3)
		sigma := []float64{0, 0, 0.3, 1, 2}[rng.Intn(5)]
		s := timeseries.New(src.Len())
		for i := 0; i < src.Len(); i++ {
			smp := src.At(i)
			_ = s.Append(smp.T, smp.RSSI+sigma*rng.NormFloat64())
		}
		series[vanet.NodeID(id+1)] = timeseries.Drop(s, 0.1*rng.Float64(), rng)
	}
	return series
}

// FuzzPruneVsExact runs the pruning contract on random rounds: 3 to 12
// identities, zero-noise ones among them, a random boundary θ in [0, 1),
// a cap configuration (adaptive at four strengths, fixed, both, or
// none) and 1 or 4 compare workers.
func FuzzPruneVsExact(f *testing.F) {
	for i := 0; i < 12; i++ {
		f.Add(int64(900+i), uint8(3+i), uint16(i*5461), uint8(i), i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8, theta uint16, caps uint8, parallel bool) {
		cfg := DefaultConfig(lda.Constant(float64(theta) / 65536))
		cfg.MinMedianRSSIDBm = 0
		switch caps % 7 {
		case 6:
			cfg.AdaptiveCapKappa = 0.5
		case 1:
			cfg.AdaptiveCapKappa = 6
		case 2:
			cfg.AdaptiveCapKappa = 40
		case 3:
			cfg.AdaptiveCapKappa = -1
			cfg.AbsoluteRawCap = 0.05
		case 4:
			cfg.AbsoluteRawCap = 0.05
		case 5:
			cfg.AdaptiveCapKappa = -1
		}
		cfg.Workers = 1
		if parallel {
			cfg.Workers = 4
		}
		rng := rand.New(rand.NewSource(seed))
		exact, fast := detectBoth(t, cfg, fuzzRound(rng, 3+int(n%10)), 20)
		checkPruneVsExact(t, cfg, 20, exact, fast)
	})
}

// TestDetectParallelDeterminismPruned re-runs the worker-count
// determinism contract with pruning enabled: the LB decisions, the
// max-first pass and the final pairs must not depend on how pairs were
// scheduled across goroutines.
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
	// Build the round scratch by hand: 150 identities with distinct
	// valid series (scaled copies of one shape, so every resolved pair
	// gets a non-zero Raw), except identity 0 whose series is empty — the
	// very first claimed pair fails inside the DTW kernel.
	const n = 150
	sc := &roundScratch{}
	for i := 0; i < n; i++ {
		sc.ids = append(sc.ids, vanet.NodeID(i))
		sc.noiseVar = append(sc.noiseVar, 0)
		var z []float64
		for k := 0; i > 0 && k < 120; k++ {
			z = append(z, float64(i*(k%17)))
		}
		sc.normalized = append(sc.normalized, z)
	}
	np := n * (n - 1) / 2
	buf := make([]PairDistance, 0, np) // comparePairs fills it in place
	if _, err := d.comparePairs(sc, buf, 0); err == nil {
		t.Fatal("comparePairs should fail on the empty series")
	}
	resolved := 0
	for _, p := range buf[:np] {
		if p.Raw != 0 {
			resolved++
		}
	}
	// Without the abort flag every worker drains the whole queue (every
	// pair not involving identity 0 resolves). With it, only pairs already in flight when the
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
			// each round compares a slightly different input.
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

// roundFor builds the compare phase's scratch for a round the way
// Detect's collection and normalization phases do (no median floor):
// sorted ids, Z-scored series and AR(1) noise variances.
func roundFor(t *testing.T, series map[vanet.NodeID]*timeseries.Series) *roundScratch {
	t.Helper()
	sc := &roundScratch{}
	for id := range series {
		sc.ids = append(sc.ids, id)
	}
	slices.Sort(sc.ids)
	for _, id := range sc.ids {
		z, err := series[id].AppendZScored(nil)
		if err != nil {
			t.Fatal(err)
		}
		nu, ok := sc.noise.Estimate(z)
		if !ok {
			nu = sc.noise.RobustDiffStd(z)
		}
		sc.normalized = append(sc.normalized, z)
		sc.noiseVar = append(sc.noiseVar, nu*nu)
	}
	return sc
}

// prunedPairs resolves a round's pairs the way cfg's pruning compare
// phase does — the max-first pass, then the abandoning DP per pair —
// without the verdict repair. It first checks that the hand-built
// scratch reproduces Detect's exact pairs.
func prunedPairs(t *testing.T, cfg Config, series map[vanet.NodeID]*timeseries.Series, density float64) []PairDistance {
	t.Helper()
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	det.cfg.LBPrune = false
	res, err := det.Detect(series, density)
	if err != nil {
		t.Fatal(err)
	}
	sc := roundFor(t, series)
	pairs, err := det.comparePairs(sc, nil, density)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Pairs {
		if p.Raw != pairs[i].Raw || p.NoiseCap != pairs[i].NoiseCap {
			t.Fatalf("pair %d: roundFor drifted from Detect", i)
		}
	}
	det.cfg.LBPrune = true
	pairs, err = det.comparePairs(sc, nil, density)
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

// TestPruneRepairsDegenerateLookingRound pins the verdict repair's
// degenerate case. In this round one pair's true distance exceeds its
// adaptive cap, so the exact round is not degenerate and flags through
// the boundary alone; but the pair is abandoned against the
// boundary-derived threshold at a bound within its cap, so the stored
// batch looks degenerate, which would flag every cap-passing pair.
func TestPruneRepairsDegenerateLookingRound(t *testing.T) {
	cfg := DefaultConfig(lda.Constant(4441.0 / 65536))
	cfg.MinMedianRSSIDBm = 0
	cfg.AdaptiveCapKappa = 40
	cfg.Workers = 1
	series := fuzzRound(rand.New(rand.NewSource(1125)), 4)
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exact, fast := detectBoth(t, cfg, series, 20)
	if det.degenerate(exact.Pairs) {
		t.Fatal("exact round is degenerate; the test needs one that is not")
	}
	if !det.degenerate(prunedPairs(t, cfg, series, 20)) {
		t.Fatal("stored batch does not look degenerate; the round no longer exercises the repair")
	}
	unflagged := false
	for _, p := range exact.Pairs {
		if !p.Flagged && det.passesCaps(p.Raw, p.NoiseCap) {
			unflagged = true
		}
	}
	if !unflagged {
		t.Fatal("every cap-passing pair is flagged; a degenerate misreading would go unseen")
	}
	checkPruneVsExact(t, cfg, 20, exact, fast)
}

// TestMaxFirstBoundsPassingPairs pins the soundness of the
// boundary-derived threshold: every pair whose exact Eq 8 distance
// passes the boundary has a raw distance at or below T. It also pins
// what T is made of — the smallest upper bound plus θ times the exact
// batch maximum, not any looser bound on it — and the max-first pass
// behind it: the pairs it computes hold the exact maximum, and every
// pair it leaves has an upper bound at or below that maximum.
func TestMaxFirstBoundsPassingPairs(t *testing.T) {
	cfg := DefaultConfig(lda.Constant(0))
	cfg.MinMedianRSSIDBm = 0
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tight := false
	for seed := int64(0); seed < 8; seed++ {
		series := sybilCluster(rand.New(rand.NewSource(400+seed)), 6)
		sc := roundFor(t, series)
		for _, theta := range []float64{0, 0.01, 0.2, 0.6, 0.99} {
			det.cfg.Boundary = lda.Constant(theta)
			pairs, err := det.comparePairs(sc, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, maxE := batchExtremes(pairs)
			floor, limit, err := det.maxFirst(sc, pairs, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := floor + float64(theta*maxE); math.Float64bits(limit) != math.Float64bits(want) {
				t.Fatalf("seed %d θ %v: T = %v, want minUB + θ·maxE = %v", seed, theta, limit, want)
			}
			doneMax := math.Inf(-1)
			for k, p := range pairs {
				if sc.done[k] {
					doneMax = max(doneMax, p.Raw)
				}
			}
			if doneMax != maxE {
				t.Fatalf("seed %d θ %v: max-first computed a maximum of %v, exact maximum %v", seed, theta, doneMax, maxE)
			}
			for k, p := range pairs {
				if !sc.done[k] && sc.ubs[k] > maxE {
					t.Fatalf("seed %d θ %v: pair %d-%d left to the sweep with upper bound %v above the batch maximum %v",
						seed, theta, p.A, p.B, sc.ubs[k], maxE)
				}
			}
			norm, err := normalize(sc, pairs)
			if err != nil {
				t.Fatal(err)
			}
			for k, p := range pairs {
				if norm[k] <= theta && p.Raw > limit {
					t.Fatalf("seed %d θ %v: pair %d-%d passes the boundary with raw %v above T %v",
						seed, theta, p.A, p.B, p.Raw, limit)
				}
				if p.Raw > limit {
					tight = true
				}
			}
		}
	}
	if !tight {
		t.Error("T never fell below a raw distance; it abandons nothing")
	}
}

// TestPruneNeverAbandonsMinUBPair pins the floor every abandon cutoff is
// raised to: the pair with the round's smallest band-path upper bound is
// never Pruned, however low its cap, so the batch minimum is always a
// computed distance. The tiny fixed cap sits below every pair's
// distance, so without the floor that pair would abandon too.
func TestPruneNeverAbandonsMinUBPair(t *testing.T) {
	tiny := DefaultConfig(lda.Constant(0.1))
	tiny.MinMedianRSSIDBm = 0
	tiny.AdaptiveCapKappa = -1
	tiny.AbsoluteRawCap = 1e-6
	configs := pruneConfigs()
	configs["tiny"] = tiny
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			cfg.Workers = 1
			det, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(0); seed < 12; seed++ {
				series := fuzzRound(rand.New(rand.NewSource(700+seed)), 4+int(seed))
				sc := roundFor(t, series)
				pairs := prunedPairs(t, cfg, series, 20)
				minUB, at, k := math.Inf(1), 0, 0
				for i, a := range sc.normalized {
					for _, b := range sc.normalized[i+1:] {
						ub, err := dtw.BandPathUpperBound(a, b, det.cfg.BandRadius)
						if err != nil {
							t.Fatal(err)
						}
						if ub = det.perSample(ub, a, b); ub < minUB {
							minUB, at = ub, k
						}
						k++
					}
				}
				if pairs[at].Pruned {
					t.Fatalf("seed %d: pair %d-%d holds the smallest upper bound %v but was abandoned at %v",
						seed, pairs[at].A, pairs[at].B, minUB, pairs[at].Raw)
				}
			}
		})
	}
}
