// Package core implements Voiceprint, the paper's primary contribution
// (Section IV, Algorithm 1): Sybil attack detection by similarity of RSSI
// time series. Each detection period the detector
//
//  1. collects the per-identity RSSI series heard during the observation
//     window (collection),
//  2. Z-score-normalizes each series (Equation 7, removing spoofed
//     per-identity TX power offsets), measures every pairwise similarity
//     with banded DTW (FastDTW in the unconstrained ablation), and
//     min-max-normalizes the distance batch into [0,1] (Equation 8)
//     (comparison), and
//  3. flags every pair whose normalized distance falls at or below the
//     density-adaptive boundary D <= k*den + b (confirmation); both
//     members of a flagged pair become Sybil suspects.
//
// The detector is model-free (no radio propagation model), independent
// (only locally observed RSSI), and infrastructure-free (no RSU).
package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"voiceprint/internal/dtw"
	"voiceprint/internal/lda"
	"voiceprint/internal/stats"
	"voiceprint/internal/timeseries"
	"voiceprint/internal/vanet"
)

// Config parameterizes a Detector.
type Config struct {
	// Boundary is the trained decision rule (Figure 10). Required:
	// a zero boundary would flag only exact-zero distances.
	Boundary lda.Boundary
	// ObservationTime is the collection window (Table V: 20 s). A bare
	// Detector compares whatever series it is handed; a Monitor slices
	// each round's window to this length (zero means 20 s).
	ObservationTime time.Duration
	// MinSamples is the minimum series length for an identity to enter
	// comparison; shorter series (barely-heard, drive-by identities at the
	// sensitivity fringe) carry too little shape to compare. Zero means 30
	// (three seconds of beacons).
	MinSamples int
	// BandRadius constrains the DTW search to a Sakoe-Chiba band of this
	// many samples around the (resampled) diagonal. RSSI series are
	// synchronized in absolute time — two identities of one radio emit at
	// the same instants — so warping exists only to absorb packet-loss
	// jitter, never multi-second time shifts; an unconstrained search
	// lets two different vehicles' coarse sweep shapes align across large
	// lags and masquerade as similar. Zero means 20 samples (2 s of
	// beacons); negative selects unconstrained FastDTW (the ablation).
	BandRadius int
	// MinMedianRSSIDBm drops identities whose median logged RSSI falls
	// below this floor: they sit at the sensitivity fringe, where series
	// are truncation artifacts rather than channel shapes, and they are
	// far outside the safety-relevant neighborhood the paper's Dist_max
	// (~400 m) delimits. Zero disables; DefaultConfig uses -80 dBm (roughly 350 m in the highway channel).
	MinMedianRSSIDBm float64
	// AbsoluteRawCap additionally requires a flagged pair's raw
	// per-sample DTW distance to be at or below this trained cap. The
	// Equation 8 min-max normalization is purely relative — when no
	// attacker is in view the closest normal pair always normalizes to 0
	// and the boundary alone would convict it; a cap anchors the decision
	// to the Sybil-pair distance scale. Zero disables the fixed cap (the
	// adaptive cap below usually supersedes it).
	AbsoluteRawCap float64
	// AdaptiveCapKappa scales the self-calibrating cap: a flagged pair's
	// raw distance must not exceed Kappa times the expected noise-only
	// distance of the pair. Two identities of one radio share the channel
	// (trend and correlated shadowing) and differ only by per-beacon
	// measurement noise, so their per-sample DTW distance is bounded by a
	// multiple of the summed noise variances; each series' noise level is
	// separated from the correlated fading by the AR(1) moment estimator
	// (stats.AR1NoiseEstimator) on its Z-scored values. Unlike a fixed cap
	// this transfers across channels — the noise scale is re-estimated
	// from each round's own series. Zero means 1.5; negative disables.
	AdaptiveCapKappa float64
	// DisableZScore skips the Equation 7 Z-score normalization before
	// comparison. Only the normalization ablation sets this: without it a
	// malicious node can break series similarity by giving each Sybil
	// identity a different TX power (Assumption 3).
	DisableZScore bool
	// DisableLengthNormalization turns off dividing each pair's DTW
	// distance by the longer series length before the Equation 8 min-max
	// step. Raw accumulated cost (Equation 6) grows with series length,
	// so under heavy uneven packet loss pairs of short series would
	// masquerade as similar; per-sample cost makes distances comparable.
	// The zero value (normalization on) is the production behaviour; the
	// ablation experiment flips this to quantify the effect.
	DisableLengthNormalization bool
	// LBPrune enables pruning in the compare phase: the banded DP computes
	// only the cells that can lie on a warp path within the pair's cutoff
	// and abandons the pair at the first row with none. The cutoff is the
	// smaller of the raw cap the pair would have to pass and a per-round
	// threshold derived from the decision boundary, above which no pair
	// can be flagged, but never below the round's smallest band-path
	// upper bound. An abandoned pair records as its Raw the per-sample
	// value of the smallest raw cost past its cutoff, a lower bound on its
	// distance (marked Pruned).
	// Flags, Suspects and the raw and normalized distances of unpruned
	// pairs are bit-identical with pruning on or off — a pass before the
	// others computes in full every pair that could hold the batch
	// maximum and the floor keeps the pair holding the minimum from being
	// abandoned, so the Equation 8 batch min and max are exact, and
	// afterwards every pruned pair whose bound could still be flagged is
	// recomputed — but a pruned pair's Raw/Normalized are bounds, not
	// distances, and a bound may sit at or below the pair's cap. The zero
	// value (off) is the bare-library default so training-data harvesting
	// and the figure pipelines keep seeing true distances; the service
	// posture (service.DefaultMonitorConfig) prunes. Pruning requires a Sakoe-Chiba band: with
	// BandRadius < 0 (unconstrained-FastDTW ablation) the flag is ignored.
	LBPrune bool
	// Workers bounds the goroutines used for the O(n²) pairwise DTW
	// comparison phase. Each pair is independent and results land in
	// preassigned slots, so the outcome is bit-identical at any worker
	// count. Zero means GOMAXPROCS; 1 forces the sequential path.
	Workers int
	// Observer, when non-nil, receives per-stage wall-clock timings for
	// every detection round (see Stage). nil — the default — disables
	// timing at zero cost: the hot path takes no clock readings and
	// allocates nothing extra, so only deployments that install an
	// observer pay for instrumentation. The detector never blocks on the
	// observer; implementations must be concurrency-safe and fast.
	Observer Observer
}

// DefaultConfig returns the paper's Table V detector settings.
func DefaultConfig(boundary lda.Boundary) Config {
	return Config{
		Boundary:         boundary,
		ObservationTime:  20 * time.Second,
		MinSamples:       30,
		BandRadius:       20,
		MinMedianRSSIDBm: -80,
		AdaptiveCapKappa: 1.5,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MinSamples < 0 {
		return errors.New("core: MinSamples must be non-negative")
	}
	if c.ObservationTime < 0 {
		return errors.New("core: ObservationTime must be non-negative")
	}
	if c.Workers < 0 {
		return errors.New("core: Workers must be non-negative")
	}
	// Non-finite thresholds turn every later comparison against them
	// into a silent no-op (x > NaN is always false), which here would
	// disable the raw-distance caps and convict every closest normal
	// pair; reject them up front instead.
	if nonFinite(c.MinMedianRSSIDBm) {
		return errors.New("core: MinMedianRSSIDBm must be finite")
	}
	if nonFinite(c.AbsoluteRawCap) {
		return errors.New("core: AbsoluteRawCap must be finite")
	}
	if nonFinite(c.AdaptiveCapKappa) {
		return errors.New("core: AdaptiveCapKappa must be finite")
	}
	return nil
}

// nonFinite reports whether f is NaN or ±Inf.
func nonFinite(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) }

// zeroSentinel reports whether a config float carries its "default /
// disabled" zero value. Unlike a raw `f == 0` it is explicit about
// tolerance and is false for NaN, so a non-finite value (rejected by
// Validate) can never masquerade as the sentinel.
func zeroSentinel(f float64) bool { return math.Abs(f) < 1e-12 }

// Detector runs Voiceprint detection rounds. It is stateless across
// rounds; use Confirmer for the paper's multi-period confirmation
// suggestion.
type Detector struct {
	cfg Config
	// medianFloor is MinMedianRSSIDBm != sentinel, precomputed so the
	// per-identity collection loop branches on a bool instead of
	// re-deciding a float sentinel on the hot path.
	medianFloor bool
}

// New builds a Detector.
func New(cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MinSamples == 0 {
		cfg.MinSamples = 30
	}
	if cfg.BandRadius == 0 {
		cfg.BandRadius = 20
	}
	if zeroSentinel(cfg.AdaptiveCapKappa) {
		cfg.AdaptiveCapKappa = 1.5
	}
	return &Detector{cfg: cfg, medianFloor: !zeroSentinel(cfg.MinMedianRSSIDBm)}, nil
}

// PairDistance is one pairwise comparison result.
type PairDistance struct {
	A, B vanet.NodeID
	// Raw is the per-sample DTW distance of the Z-score-normalized series.
	Raw float64
	// NoiseCap is the pair's adaptive cap (0 when disabled): kappa times
	// the expected noise-only distance.
	NoiseCap float64
	// Normalized is Raw after the batch min-max normalization
	// (Equation 8); this is what the boundary thresholds.
	Normalized float64
	// Flagged reports whether the pair fell under the boundary.
	Flagged bool
	// Pruned reports that pruning (Config.LBPrune) abandoned the pair's
	// banded DP. Raw and Normalized then hold a bound just past the pair's
	// cutoff (the per-sample value of the smallest raw cost whose
	// per-sample value exceeds it), a lower bound on the true distance,
	// not the distance itself. The bound exceeds the round's smallest
	// upper bound and either the pair's cap or the round's
	// boundary-derived threshold, so it may sit at or below the cap, but
	// never at or below the batch minimum. Pruned pairs are never flagged:
	// the compare phase recomputes every pruned pair that the exact run
	// could flag.
	Pruned bool
}

// Result is one detection round's outcome.
type Result struct {
	// Suspects holds the identities confirmed as Sybil suspects.
	Suspects map[vanet.NodeID]bool
	// Pairs holds every comparison, for training data harvesting
	// (Figure 10) and diagnostics. For rounds run under a Monitor the
	// slice is backed by the monitor's reusable pair buffer: the next
	// round overwrites it, so callers that retain results across rounds
	// must copy it (bare Detector rounds allocate fresh).
	Pairs []PairDistance
	// Considered lists the identities that had enough samples to compare,
	// in ascending ID order.
	Considered []vanet.NodeID
	// Density is the density the boundary was evaluated at.
	Density float64
	// Skipped counts identities dropped for having too few samples.
	Skipped int
	// WindowEnd is the exclusive end of the observation window the round
	// actually evaluated. Monitors set it so a DetectAt caller can see the
	// boundary the request resolved to (historically the monitor silently
	// substituted its own clock).
	WindowEnd time.Duration
	// Confirmed is the post-round K-of-N confirmation set when the round
	// ran under a Monitor (which folds the round into its Confirmer); nil
	// for bare Detector rounds.
	Confirmed map[vanet.NodeID]bool
	// PairsCompared counts the pairs whose DTW distance was computed in
	// full this round (including pairs pruning computed up front to fix
	// the batch maximum, and pairs the verdict repair recomputed);
	// PairsPrunedLB the pairs left Pruned, resolved by a bound from the
	// abandoned banded DP. The two always sum to len(Pairs).
	PairsCompared int
	PairsPrunedLB int
	// Signals is the per-identity, per-signal attribution map, populated
	// only by fusion-enabled Monitor rounds: identity -> signal name ->
	// score (normalized DTW distance for "voiceprint", chi-square
	// statistic for "position", group index for "clique"). Nil on plain
	// single-signal rounds, so fusion-off results are unchanged.
	Signals map[vanet.NodeID]map[string]float64
}

// roundScratch is one detection round's reusable working memory. A pooled
// scratch makes steady-state rounds allocate (almost) only the Result they
// hand back — which escapes to callers — while the value
// arena, per-identity noise estimates, and distance batches are reused.
type roundScratch struct {
	ids        []vanet.NodeID
	pairIdx    [][2]int32 // (i, j) into ids per pair, nested-loop order
	vals       []float64  // arena backing every normalized series this round
	normalized [][]float64
	noiseVar   []float64
	raws       []float64
	norm       []float64
	med        []float64 // median-filter scratch (sorted in place)
	noise      stats.AR1NoiseEstimator
	// Pruning working set: every pair's per-sample upper bound, the
	// max-first pass's visiting order (the verdict repair reuses it), and
	// the pairs that pass computed in full.
	order []int32
	ubs   []float64
	done  []bool
}

var scratchPool = sync.Pool{New: func() any { return new(roundScratch) }}

// Detect runs one round over the series heard in the observation window.
// density is the receiver's traffic-density estimate (Equation 9; see
// EstimateDensity). Fewer than three usable identities yield an empty
// result: with a single pair the min-max normalization of Equation 8 is
// degenerate (the lone distance maps to 0 and would always be flagged).
func (d *Detector) Detect(series map[vanet.NodeID]*timeseries.Series, density float64) (*Result, error) {
	return d.detect(series, density, nil)
}

// detect is Detect with a caller-owned backing array for Result.Pairs:
// monitor rounds pass their reusable buffer, bare rounds pass nil.
func (d *Detector) detect(series map[vanet.NodeID]*timeseries.Series, density float64, buf []PairDistance) (*Result, error) {
	if density < 0 {
		return nil, errors.New("core: negative density")
	}
	sc := scratchPool.Get().(*roundScratch)
	defer scratchPool.Put(sc)
	res := &Result{Suspects: make(map[vanet.NodeID]bool), Density: density}

	// Per-stage instrumentation. Every observer call site is guarded so
	// the nil-observer hot path takes no clock readings (and the alloc
	// budget test pins that it allocates nothing extra); the guards are
	// inlined rather than wrapped in a closure because a capturing
	// closure would itself escape and allocate.
	obsv := d.cfg.Observer
	var stageStart time.Time
	if obsv != nil {
		stageStart = time.Now()
	}

	// Phase 1 — collection (filter usable identities).
	sc.ids = sc.ids[:0]
	for id, s := range series {
		if s == nil || s.Len() < d.cfg.MinSamples {
			res.Skipped++
			continue
		}
		if d.medianFloor {
			sc.med = s.AppendValues(sc.med[:0])
			med, err := stats.MedianInPlace(sc.med)
			if err != nil || med < d.cfg.MinMedianRSSIDBm {
				res.Skipped++
				continue
			}
		}
		sc.ids = append(sc.ids, id)
	}
	slices.Sort(sc.ids)
	res.Considered = append([]vanet.NodeID(nil), sc.ids...)
	if obsv != nil {
		now := time.Now()
		obsv.ObserveStage(StageCollect, now.Sub(stageStart))
		stageStart = now
	}
	if len(sc.ids) < 3 {
		return res, nil
	}

	// Phase 2 — comparison: Z-score normalize into the value arena,
	// pairwise banded DTW on per-worker workspaces, then min-max normalize
	// the distance batch. Everything is indexed by position in the sorted
	// sc.ids (not by NodeID maps), so lookups are array reads.
	sc.vals = sc.vals[:0]
	sc.normalized = sc.normalized[:0]
	sc.noiseVar = sc.noiseVar[:0]
	for _, id := range sc.ids {
		start := len(sc.vals)
		if d.cfg.DisableZScore {
			sc.vals = series[id].AppendValues(sc.vals)
		} else {
			var err error
			sc.vals, err = series[id].AppendZScored(sc.vals)
			if err != nil {
				return nil, fmt.Errorf("core: normalize series %d: %w", id, err)
			}
		}
		// Three-index slice: a later arena grow must reallocate rather
		// than scribble over this identity's values.
		z := sc.vals[start:len(sc.vals):len(sc.vals)]
		sc.normalized = append(sc.normalized, z)
		nu, ok := sc.noise.Estimate(z)
		if !ok {
			// Too short to separate noise from fading: conservative
			// first-difference bound.
			nu = sc.noise.RobustDiffStd(z)
		}
		sc.noiseVar = append(sc.noiseVar, nu*nu)
	}
	if obsv != nil {
		now := time.Now()
		obsv.ObserveStage(StageNormalize, now.Sub(stageStart))
		stageStart = now
	}
	pairs, err := d.comparePairs(sc, buf, density)
	if err != nil {
		return nil, err
	}
	res.Pairs = pairs
	norm, err := normalize(sc, pairs)
	if err != nil {
		return nil, err
	}
	if d.prunes() {
		if norm, err = d.repairVerdicts(sc, pairs, norm, density); err != nil {
			return nil, err
		}
	}
	// The verdict repair clears Pruned on every pair it recomputes, so the
	// pairs still marked are exactly those resolved by a bound.
	for _, p := range pairs {
		if p.Pruned {
			res.PairsPrunedLB++
		}
	}
	res.PairsCompared = len(pairs) - res.PairsPrunedLB
	if obsv != nil {
		now := time.Now()
		obsv.ObserveStage(StageCompare, now.Sub(stageStart))
		stageStart = now
	}

	// Phase 3 — confirmation against the density-adaptive boundary (and
	// the caps, when configured). One degenerate case first: when every
	// pair in the round sits at noise level (all raw distances within
	// their adaptive caps), the relative min-max ranking of Equation 8 is
	// meaningless — all identities look like one transmitter — so every
	// cap-passing pair is flagged. This is what convicts a Sybil cluster
	// when it is the only thing in view, and it is also what reproduces
	// the paper's red-light false positive: stationary vehicles' frozen
	// channels degenerate into pure noise series (Section VI-B).
	degenerate := d.degenerate(res.Pairs)
	for i := range res.Pairs {
		res.Pairs[i].Normalized = norm[i]
		if !d.passesCaps(res.Pairs[i].Raw, res.Pairs[i].NoiseCap) {
			continue
		}
		if degenerate || d.cfg.Boundary.IsSybilPair(density, norm[i]) {
			res.Pairs[i].Flagged = true
			res.Suspects[res.Pairs[i].A] = true
			res.Suspects[res.Pairs[i].B] = true
		}
	}
	if obsv != nil {
		obsv.ObserveStage(StageConfirm, time.Since(stageStart))
	}
	return res, nil
}

// normalize min-max normalizes the round's raw distances (Equation 8)
// into the scratch batch.
func normalize(sc *roundScratch, pairs []PairDistance) ([]float64, error) {
	sc.raws = sc.raws[:0]
	for _, p := range pairs {
		sc.raws = append(sc.raws, p.Raw)
	}
	if cap(sc.norm) < len(sc.raws) {
		sc.norm = make([]float64, len(sc.raws))
	}
	sc.norm = sc.norm[:len(sc.raws)]
	norm, err := timeseries.MinMaxNormalizeInto(sc.norm, sc.raws)
	if err != nil {
		return nil, fmt.Errorf("core: min-max normalize distances: %w", err)
	}
	return norm, nil
}

// passesCaps reports whether a raw distance passes the fixed cap and the
// pair's adaptive cap. A pair whose adaptive cap is 0 (both noise
// estimates clamped to zero) skips that cap: it fails open.
func (d *Detector) passesCaps(raw, noiseCap float64) bool {
	if d.cfg.AbsoluteRawCap > 0 && raw > d.cfg.AbsoluteRawCap {
		return false
	}
	return !(noiseCap > 0 && raw > noiseCap)
}

// degenerate reports whether every pair of the round sits within its
// adaptive cap. A zero cap counts as exceeded by any non-zero distance,
// so one zero-noise pair keeps a round from being degenerate.
func (d *Detector) degenerate(pairs []PairDistance) bool {
	if d.cfg.AdaptiveCapKappa <= 0 || len(pairs) == 0 {
		return false
	}
	for i := range pairs {
		if pairs[i].Raw > pairs[i].NoiseCap {
			return false
		}
	}
	return true
}

// repairVerdicts is the second pruning repair, run after the Equation 8
// normalization: it recomputes every pruned pair whose stored bound could
// still be flagged, so the flags equal the exact run's. A pair abandoned
// against the boundary-derived threshold may store a bound at or below
// its cap, so two cases arise:
//
//   - Some stored Raw exceeds its NoiseCap. The pair's true distance is at
//     least that Raw, so the exact round is not degenerate either, and a
//     pair is flagged only through the boundary. The stored batch min and
//     max are exact (see maxFirst), so a pruned pair's normalized bound is
//     at most its exact normalized distance; recomputing the cap-passing
//     pruned pairs whose normalized bound passes the boundary leaves out
//     only pairs the exact run cannot flag, whatever the rounding of the
//     threshold.
//   - Every stored Raw is within its NoiseCap: the stored batch looks
//     degenerate, but a pruned pair's true distance may not be. Every
//     pruned pair is recomputed and the batch is exact.
//
// Recomputed pairs keep their true distances inside the exact batch
// extremes; the batch is renormalized all the same.
func (d *Detector) repairVerdicts(sc *roundScratch, pairs []PairDistance, norm []float64, density float64) ([]float64, error) {
	looksDegenerate := d.degenerate(pairs)
	sc.order = sc.order[:0]
	for k := range pairs {
		p := &pairs[k]
		if p.Pruned && (looksDegenerate || d.passesCaps(p.Raw, p.NoiseCap) && d.cfg.Boundary.IsSybilPair(density, norm[k])) {
			sc.order = append(sc.order, int32(k))
		}
	}
	if len(sc.order) == 0 {
		return norm, nil
	}
	ws := dtw.GetWorkspace()
	defer dtw.PutWorkspace(ws)
	for _, k := range sc.order {
		ij := sc.pairIdx[k]
		if err := d.comparePairAt(ws, &pairs[k], sc.normalized[ij[0]], sc.normalized[ij[1]]); err != nil {
			return nil, err
		}
		pairs[k].Pruned = false
	}
	return normalize(sc, pairs)
}

// prunes reports whether the compare phase prunes: LBPrune is on and a
// Sakoe-Chiba band is configured (the unconstrained-FastDTW ablation has
// no abandoning DP).
func (d *Detector) prunes() bool { return d.cfg.LBPrune && d.cfg.BandRadius >= 0 }

// comparePairs resolves every {i < j} pair of sc.ids into buf (grown
// when too small), fanned out across Workers goroutines. Pairs are
// enumerated in the usual nested-loop order and each goroutine writes
// only its preassigned slots on its own dtw.Workspace, so the returned
// slice is deterministic (identical to the sequential loop) at any
// worker count and any pool state. When pruning, one sequential pass
// (maxFirst) first fixes the batch maximum and derives the round's
// abandon cutoffs.
func (d *Detector) comparePairs(sc *roundScratch, buf []PairDistance, density float64) ([]PairDistance, error) {
	n := len(sc.ids)
	np := n * (n - 1) / 2
	// The pair slice escapes inside the Result, so it cannot live in the
	// global scratch pool; monitor rounds hand in their own buffer
	// (Result.Pairs documents the lifetime), bare rounds allocate.
	if cap(buf) < np {
		buf = make([]PairDistance, 0, np)
	}
	pairs := buf[:0]
	sc.pairIdx = sc.pairIdx[:0]
	sc.done = sc.done[:0]
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pd := PairDistance{A: sc.ids[i], B: sc.ids[j]}
			if d.cfg.AdaptiveCapKappa > 0 {
				pd.NoiseCap = d.cfg.AdaptiveCapKappa * (sc.noiseVar[i] + sc.noiseVar[j])
			}
			pairs = append(pairs, pd)
			sc.pairIdx = append(sc.pairIdx, [2]int32{int32(i), int32(j)})
			sc.done = append(sc.done, false)
		}
	}
	// A floor of +Inf resolves every pair in full.
	floor, limit := math.Inf(1), math.Inf(1)
	if d.prunes() {
		var err error
		if floor, limit, err = d.maxFirst(sc, pairs, density); err != nil {
			return nil, err
		}
	}
	workers := d.cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > np {
		workers = np
	}
	// A detection round over a handful of neighbors finishes in
	// microseconds; goroutine fan-out only pays for itself on bigger
	// rounds.
	if workers <= 1 || np < 16 {
		ws := dtw.GetWorkspace()
		defer dtw.PutWorkspace(ws)
		for k := range pairs {
			if err := d.resolvePair(ws, sc, pairs, k, floor, limit); err != nil {
				return nil, err
			}
		}
	} else {
		var (
			next     atomic.Int64
			wg       sync.WaitGroup
			errOnce  sync.Once
			firstErr error
			abort    atomic.Bool
		)
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				ws := dtw.GetWorkspace()
				defer dtw.PutWorkspace(ws)
				for !abort.Load() {
					k := int(next.Add(1)) - 1
					if k >= np {
						return
					}
					if err := d.resolvePair(ws, sc, pairs, k, floor, limit); err != nil {
						// Record the first error and stop the whole pool:
						// without the abort flag every worker would grind
						// through its share of the remaining pairs before
						// the round could report the failure.
						errOnce.Do(func() { firstErr = err })
						abort.Store(true)
						return
					}
				}
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
	}
	return pairs, nil
}

// maxFirst is the pruning pass run before the fan-out; it makes the
// Equation 8 batch extremes exact by construction. It stores every
// pair's per-sample band-path upper bound in sc.ubs, then computes in
// full, by descending bound, every pair whose bound exceeds the running
// exact maximum maxE, marking it in sc.done. Every other pair's true
// distance is at most its bound, so at most maxE, and maxE is the exact
// batch maximum whatever the others store.
//
// It returns the floor no abandon cutoff may undercut, the smallest
// bound minUB: the pair holding it has distance ≤ minUB ≤ its cutoff,
// so it is never abandoned, the batch minimum is a computed distance,
// and every pruned bound, which exceeds its cutoff, lies above it. It also returns the
// boundary-derived threshold T = minUB + θ·maxE: a pair is flagged
// through the boundary only if its raw distance is at most
// min + θ·(max − min), and min ≤ minUB, max − min ≤ maxE. θ outside
// [0, 1) gives T = +Inf (at θ ≥ 1 every cap-passing pair is flagged); a
// non-finite bound gives floor +Inf, and the round runs unpruned. No
// step depends on pair scheduling, so the result is the same at any
// worker count.
func (d *Detector) maxFirst(sc *roundScratch, pairs []PairDistance, density float64) (float64, float64, error) {
	inf := math.Inf(1)
	if cap(sc.ubs) < len(pairs) {
		sc.ubs = make([]float64, len(pairs))
	}
	sc.ubs = sc.ubs[:len(pairs)]
	floor, top := inf, 0
	for k := range pairs {
		ij := sc.pairIdx[k]
		a, b := sc.normalized[ij[0]], sc.normalized[ij[1]]
		ub, err := dtw.BandPathUpperBound(a, b, d.cfg.BandRadius)
		if err != nil {
			return 0, 0, fmt.Errorf("core: upper bound %d/%d: %w", pairs[k].A, pairs[k].B, err)
		}
		ub = d.perSample(ub, a, b)
		if nonFinite(ub) {
			return inf, inf, nil
		}
		sc.ubs[k] = ub
		floor = min(floor, ub)
		if ub > sc.ubs[top] {
			top = k
		}
	}
	ws := dtw.GetWorkspace()
	defer dtw.PutWorkspace(ws)
	// The largest-bound pair goes first, alone: its exact distance leaves
	// only the pairs whose bound exceeds it to sort.
	ij := sc.pairIdx[top]
	if err := d.comparePairAt(ws, &pairs[top], sc.normalized[ij[0]], sc.normalized[ij[1]]); err != nil {
		return 0, 0, err
	}
	sc.done[top] = true
	maxE := pairs[top].Raw
	sc.order = sc.order[:0]
	for k := range pairs {
		if sc.ubs[k] > maxE && !sc.done[k] {
			sc.order = append(sc.order, int32(k))
		}
	}
	slices.SortFunc(sc.order, func(x, y int32) int {
		if c := cmp.Compare(sc.ubs[y], sc.ubs[x]); c != 0 {
			return c
		}
		return int(x) - int(y)
	})
	for _, k := range sc.order {
		if !(sc.ubs[k] > maxE) {
			break
		}
		ij := sc.pairIdx[k]
		if err := d.comparePairAt(ws, &pairs[k], sc.normalized[ij[0]], sc.normalized[ij[1]]); err != nil {
			return 0, 0, err
		}
		sc.done[k] = true
		maxE = max(maxE, pairs[k].Raw)
	}
	theta := d.cfg.Boundary.Threshold(density)
	if !(theta >= 0 && theta < 1) {
		return floor, inf, nil
	}
	return floor, floor + float64(theta*maxE), nil
}

// resolvePair resolves pair k unless maxFirst already computed it: run
// the banded DP with early abandoning against the smaller of the cap the
// pair would need to pass and the round's boundary-derived limit, raised
// to the floor (falling back to the plain comparison when pruning is off
// or no cutoff applies). It writes only pairs[k], so workers never share
// mutable state.
func (d *Detector) resolvePair(ws *dtw.Workspace, sc *roundScratch, pairs []PairDistance, k int, floor, limit float64) error {
	if sc.done[k] {
		return nil
	}
	ij := sc.pairIdx[k]
	a, b := sc.normalized[ij[0]], sc.normalized[ij[1]]
	p := &pairs[k]
	// The cap cutoff mirrors the confirmation phase's cap checks. When
	// the adaptive cap governs the pair it is the only admissible cap
	// cutoff: pruning on the fixed cap alone would store a bound that
	// breaks the degenerate-round check, which compares every Raw
	// against its NoiseCap. An uncapped pair abandons against the limit
	// alone.
	capCut := math.Inf(1)
	if d.cfg.AdaptiveCapKappa > 0 && p.NoiseCap > 0 {
		capCut = p.NoiseCap
	} else if d.cfg.AbsoluteRawCap > 0 {
		capCut = d.cfg.AbsoluteRawCap
	}
	if t := max(floor, min(capCut, limit)); !math.IsInf(t, 1) {
		raw, abandoned, err := ws.BandedDistanceAbandon(a, b, d.cfg.BandRadius, d.normDiv(a, b), t)
		if err != nil {
			return fmt.Errorf("core: compare %d/%d: %w", p.A, p.B, err)
		}
		p.Raw = d.perSample(raw, a, b)
		p.Pruned = abandoned
		return nil
	}
	return d.comparePairAt(ws, p, a, b)
}

// comparePairAt fills in one pair's raw distance in place, comparing the
// normalized series a (for pd.A) and b (for pd.B) on ws.
func (d *Detector) comparePairAt(ws *dtw.Workspace, pd *PairDistance, a, b []float64) error {
	raw, err := d.compare(ws, a, b)
	if err != nil {
		return comparePairErr(pd.A, pd.B, err)
	}
	pd.Raw = d.perSample(raw, a, b)
	return nil
}

// comparePairErr formats a compare failure off the hot path: fmt's
// argument boxing is a heap allocation. Kept out of line so the boxing
// stays in this cold frame instead of being inlined into comparePairAt,
// which runs once per compared pair.
//
//go:noinline
func comparePairErr(a, b vanet.NodeID, err error) error {
	return fmt.Errorf("core: compare %d/%d: %w", a, b, err)
}

// perSample converts an accumulated warp cost to the per-sample scale
// the caps and Equation 8 operate on (a no-op when length normalization
// is disabled). Bounds must go through the same scaling as distances or
// the pruning comparisons would mix scales.
func (d *Detector) perSample(v float64, a, b []float64) float64 {
	return v / d.normDiv(a, b)
}

// normDiv is the per-sample scaling divisor perSample applies; the
// early-abandoning DP takes it explicitly so its in-kernel cutoff
// comparison uses the identical division.
func (d *Detector) normDiv(a, b []float64) float64 {
	if d.cfg.DisableLengthNormalization {
		return 1
	}
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	return float64(n)
}

// fastDTWRadius is the FastDTW search radius of the unconstrained
// ablation (BandRadius < 0); 4 is empirically exact on same-transmitter
// series (see internal/dtw tests).
const fastDTWRadius = 4

// compare measures one pair: banded DTW by default, unconstrained
// FastDTW when BandRadius < 0.
func (d *Detector) compare(ws *dtw.Workspace, a, b []float64) (float64, error) {
	if d.cfg.BandRadius < 0 {
		return ws.FastDistance(a, b, fastDTWRadius)
	}
	return ws.BandedDistance(a, b, d.cfg.BandRadius)
}

// Config returns the detector's effective configuration.
func (d *Detector) Config() Config { return d.cfg }
