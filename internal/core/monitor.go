package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"voiceprint/internal/timeseries"
	"voiceprint/internal/vanet"
)

// Monitor is the online face of the detector: a vehicle feeds it every
// received beacon as it arrives and asks for a verdict once per detection
// period. It owns the rolling observation window, the Equation 9 density
// estimator and the multi-period Confirmer, so embedding Voiceprint in an
// OBU's receive path is three calls: Observe, Detect, Confirmed.
//
// A Monitor is safe for concurrent use: the streaming service feeds
// observations from ingest goroutines while a scheduler runs detection
// rounds on a worker pool. Calls serialize on an internal mutex; the
// heavy pairwise comparison inside Detect still parallelizes internally
// via Config.Workers.
type Monitor struct {
	mu        sync.Mutex
	det       *Detector
	estimator *DensityEstimator // voiceprintvet:guardedby mu
	confirmer *Confirmer        // voiceprintvet:guardedby mu
	// obsv mirrors the detector config's Observer so the window-
	// extraction stage (which runs here, before the detector) reports
	// through the same hook.
	obsv Observer

	window     time.Duration
	evictAfter time.Duration
	tolerance  time.Duration
	series     map[vanet.NodeID]*timeseries.Series // voiceprintvet:guardedby mu
	lastObs    map[vanet.NodeID]time.Duration      // voiceprintvet:guardedby mu
	now        time.Duration                       // voiceprintvet:guardedby mu
	evicted    uint64                              // voiceprintvet:guardedby mu

	// pairs backs Result.Pairs across rounds, so steady-state rounds do
	// not allocate a fresh pair slice; Result.Pairs documents the
	// lifetime this buys.
	pairs []PairDistance // voiceprintvet:guardedby mu
	// input, views and heard are reused across rounds: input is the map
	// handed to the detector, views holds one zero-copy window header per
	// tracked identity, heard collects the ids seen this window.
	input map[vanet.NodeID]*timeseries.Series // voiceprintvet:guardedby mu
	views map[vanet.NodeID]*timeseries.Series // voiceprintvet:guardedby mu
	heard []vanet.NodeID                      // voiceprintvet:guardedby mu

	// Fusion state: the configured extra signals and, when fusion is
	// enabled, the per-identity claimed-position samples (appended by
	// ObserveWithClaim, trimmed with the series). claims is nil when
	// fusion is off — claimed positions are then ignored entirely, which
	// keeps plain rounds bit-identical.
	fusion FusionOptions
	claims map[vanet.NodeID][]ClaimSample // voiceprintvet:guardedby mu
	// claimsIn is the reusable window slice handed to signals.
	claimsIn map[vanet.NodeID][]ClaimSample // voiceprintvet:guardedby mu
}

// MonitorConfig configures a Monitor.
type MonitorConfig struct {
	// Detector is the detection configuration (boundary, normalizations).
	Detector Config
	// MaxRangeM is Dist_max for density estimation; zero means 400 m.
	MaxRangeM float64
	// ConfirmWindow and ConfirmNeed set the multi-period confirmation
	// rule: an identity is confirmed once flagged in ConfirmNeed of the
	// last ConfirmWindow rounds. A zero ConfirmWindow means 1-of-1
	// (confirm on the first flag).
	ConfirmWindow, ConfirmNeed int
	// EvictAfter drops identities not heard for this long; zero means
	// twice the detector's observation time.
	EvictAfter time.Duration
	// ReorderTolerance is how far back in time an observation may arrive
	// relative to the newest observation and still be accepted by
	// Observe (clamped forward to the monitor clock); anything older is
	// rejected with ErrTimeBackwards. Zero or negative keeps strict
	// monotonicity — the offline/batch default. The service registry
	// turns zero into a few beacon intervals so slightly late network
	// deliveries do not poison the stream.
	ReorderTolerance time.Duration
	// Deprecated: DisablePairCache has no effect; the dirty-pair cache it
	// switched off was removed. It is kept only because the benchmark
	// module (perfbench) still names it.
	DisablePairCache bool
	// Fusion is the multi-signal fusion option block (see FusionOptions).
	// The zero value keeps the plain single-signal pipeline.
	Fusion FusionOptions
}

// NewMonitor builds a Monitor.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	det, err := New(cfg.Detector)
	if err != nil {
		return nil, err
	}
	if zeroSentinel(cfg.MaxRangeM) {
		cfg.MaxRangeM = 400
	}
	est, err := NewDensityEstimator(cfg.MaxRangeM)
	if err != nil {
		return nil, err
	}
	if cfg.ConfirmWindow == 0 {
		cfg.ConfirmWindow = 1
		cfg.ConfirmNeed = 1
	}
	conf, err := NewConfirmer(cfg.ConfirmWindow, cfg.ConfirmNeed)
	if err != nil {
		return nil, err
	}
	window := det.Config().ObservationTime
	if window == 0 {
		window = 20 * time.Second
	}
	if cfg.EvictAfter < 0 {
		return nil, errors.New("core: EvictAfter must be non-negative")
	}
	evictAfter := cfg.EvictAfter
	if evictAfter == 0 {
		evictAfter = 2 * window
	}
	tolerance := cfg.ReorderTolerance
	if tolerance < 0 {
		tolerance = 0
	}
	if err := cfg.Fusion.Validate(); err != nil {
		return nil, err
	}
	m := &Monitor{
		det:        det,
		estimator:  est,
		confirmer:  conf,
		obsv:       det.Config().Observer,
		window:     window,
		evictAfter: evictAfter,
		tolerance:  tolerance,
		series:     make(map[vanet.NodeID]*timeseries.Series),
		lastObs:    make(map[vanet.NodeID]time.Duration),
		fusion:     cfg.Fusion,
	}
	if m.fusion.Enabled {
		m.claims = make(map[vanet.NodeID][]ClaimSample)
	}
	return m, nil
}

// ErrTimeBackwards is returned when observations regress in time.
var ErrTimeBackwards = errors.New("core: observation time went backwards")

// ErrNonFiniteRSSI is returned when an observation carries a NaN or Inf
// RSSI. A non-finite sample admitted into a series poisons every mean,
// Z-score and DTW distance computed over it for as long as it stays in
// the window, so it is rejected at ingest instead.
var ErrNonFiniteRSSI = errors.New("core: non-finite RSSI")

// Observe feeds one received beacon, carrying a finite RSSI. Timestamps
// must be non-decreasing across all identities up to the configured
// MonitorConfig.ReorderTolerance: a timestamp at most that far behind
// the newest observation is clamped forward to it (the sample still
// lands in the window; order within a series is what DTW absorbs
// anyway), anything older is rejected with ErrTimeBackwards. With the
// zero tolerance — the default — ordering is strictly monotone.
func (m *Monitor) Observe(id vanet.NodeID, t time.Duration, rssi float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.observeLocked(id, t, rssi, nil)
}

// ErrNonFinitePosition is returned when a claimed position carries a NaN
// or Inf coordinate — rejected at ingest for the same reason as
// non-finite RSSI.
var ErrNonFinitePosition = errors.New("core: non-finite claimed position")

// ObserveWithClaim feeds one beacon that also carried a claimed sender
// position, expressed in the receiver's local frame (claimed minus
// receiver position, meters). The RSSI sample is ingested exactly as
// Observe does; the claim is additionally retained for fusion signals
// when MonitorConfig.Fusion is enabled, and ignored otherwise — so a
// fusion-off monitor fed positioned beacons behaves bit-identically to
// one fed plain beacons.
func (m *Monitor) ObserveWithClaim(id vanet.NodeID, t time.Duration, rssi float64, x, y float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := ClaimSample{T: t, X: x, Y: y, RSSI: rssi}
	if !finiteClaim(c) {
		return fmt.Errorf("%w: (%v, %v) at %v", ErrNonFinitePosition, x, y, t)
	}
	return m.observeLocked(id, t, rssi, &c)
}

// observeLocked implements ingest under m.mu. claim, when non-nil and
// fusion is enabled, is retained for the round's fusion signals (its T
// is clamped along with the sample's).
//
// voiceprintvet:holds mu
func (m *Monitor) observeLocked(id vanet.NodeID, t time.Duration, rssi float64, claim *ClaimSample) error {
	if math.IsNaN(rssi) || math.IsInf(rssi, 0) {
		return fmt.Errorf("%w: %v at %v", ErrNonFiniteRSSI, rssi, t)
	}
	if t < m.now {
		if m.now-t > m.tolerance {
			// The bare sentinel: the service drops stale beacons on the
			// ingest path, where wrapping would allocate per beacon.
			return ErrTimeBackwards
		}
		t = m.now
	}
	m.now = t
	s := m.series[id]
	if s == nil {
		s = timeseries.New(64)
		m.series[id] = s
	}
	if err := s.Append(t, rssi); err != nil {
		return err
	}
	m.lastObs[id] = t
	if claim != nil && m.claims != nil {
		claim.T = t
		m.claims[id] = append(m.claims[id], *claim)
	}
	return nil
}

// Detect runs one detection round over the trailing observation window,
// updates the confirmer, and returns the round result. Call it once per
// detection period.
func (m *Monitor) Detect() (*Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.detectAtLocked(m.now)
}

// DetectAt runs a detection round with the observation window ending at
// the requested boundary at (inclusive), advancing the monitor clock to
// it when ahead. Schedulers use it to fire rounds at exact period
// boundaries even when no beacon landed on the boundary instant. When
// observations have already streamed past the boundary the round still
// evaluates the requested window — it does not drift forward to the
// newest observation (the pre-fix behaviour); Result.WindowEnd reports
// the boundary actually used. Eviction is still governed by the monotone
// monitor clock, so a long-past boundary sees only retained history.
func (m *Monitor) DetectAt(at time.Duration) (*Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if at > m.now {
		m.now = at
	}
	return m.detectAtLocked(at)
}

// detectAtLocked runs one round with the window ending at end. The
// returned Result belongs to the caller, except that Result.Pairs is
// backed by the monitor's reusable pair buffer.
//
// voiceprintvet:holds mu
func (m *Monitor) detectAtLocked(end time.Duration) (*Result, error) {
	m.evictLocked()
	// Window extraction is the round's monitor-side stage; like the
	// detector's stages it is timed only when an observer is installed.
	var windowStart time.Time
	if m.obsv != nil {
		windowStart = time.Now()
	}
	from := end - m.window
	if from < 0 {
		from = 0
	}
	if m.input == nil {
		m.input = make(map[vanet.NodeID]*timeseries.Series, len(m.series))
		m.views = make(map[vanet.NodeID]*timeseries.Series, len(m.series))
	}
	clear(m.input)
	m.heard = m.heard[:0]
	for id, s := range m.series {
		v := m.views[id]
		if v == nil {
			v = &timeseries.Series{}
			m.views[id] = v
		}
		s.WindowViewInto(from, end+1, v)
		if v.Len() == 0 {
			continue
		}
		m.input[id] = v
		m.heard = append(m.heard, id)
	}
	// The range above walks a map; sort so everything derived from the
	// heard list is independent of map iteration order.
	slices.Sort(m.heard)
	density := m.estimator.Estimate(m.heard)
	if m.obsv != nil {
		m.obsv.ObserveStage(StageWindow, time.Since(windowStart))
	}
	res, err := m.det.detect(m.input, density, m.pairs)
	if err != nil {
		return nil, err
	}
	if res.Pairs != nil {
		m.pairs = res.Pairs
	}
	res.WindowEnd = end
	if m.fusion.Enabled {
		if err := m.fuseLocked(res, from, end); err != nil {
			return nil, err
		}
	}
	m.estimator.Record(res.Suspects)
	res.Confirmed = m.confirmer.Update(res.Considered, res.Suspects)
	return res, nil
}

// fuseLocked runs the configured fusion signals over the round's window
// and folds their verdicts into res: suspect sets union, and flagged
// identities extend Considered (so every flagged identity is accounted
// in the round that flagged it). Tested-but-clean identities do NOT
// extend Considered — a fusion signal's negative verdict is weaker than
// its positive one, and folding them in would dilute the round's
// grading denominator relative to the plain pipeline instead of
// strictly adding to it. Per-identity scores land in res.Signals. The
// voiceprint round itself has already run; its pair evidence is in
// res.Pairs.
//
// voiceprintvet:holds mu
func (m *Monitor) fuseLocked(res *Result, from, end time.Duration) error {
	if m.claimsIn == nil {
		m.claimsIn = make(map[vanet.NodeID][]ClaimSample)
	}
	clear(m.claimsIn)
	for id, cs := range m.claims {
		// Claims are appended under the monotone monitor clock, so each
		// slice is sorted by T; binary-search the window bounds.
		lo := sort.Search(len(cs), func(i int) bool { return cs[i].T >= from })
		hi := sort.Search(len(cs), func(i int) bool { return cs[i].T > end })
		if lo < hi {
			m.claimsIn[id] = cs[lo:hi:hi]
		}
	}
	in := &SignalInput{
		WindowStart: from,
		WindowEnd:   end,
		Density:     res.Density,
		Series:      m.input,
		Claims:      m.claimsIn,
	}
	signals := make(map[vanet.NodeID]map[string]float64)
	attach := func(id vanet.NodeID, name string, score float64) {
		per := signals[id]
		if per == nil {
			per = make(map[string]float64, 2)
			signals[id] = per
		}
		per[name] = score
	}
	vpScores := VoiceprintScores(res.Pairs, nil)
	for id := range res.Suspects {
		if s, ok := vpScores[id]; ok {
			attach(id, SignalName, s)
		}
	}
	considered := make(map[vanet.NodeID]bool, len(res.Considered))
	for _, id := range res.Considered {
		considered[id] = true
	}
	grew := false
	for _, sig := range m.fusion.Signals {
		sr, err := sig.Analyze(in)
		if err != nil {
			return fmt.Errorf("core: fusion signal %q: %w", sig.Name(), err)
		}
		if sr == nil {
			continue
		}
		res.Skipped += sr.Skipped
		name := sig.Name()
		for id, flagged := range sr.Suspects {
			if !flagged {
				continue
			}
			res.Suspects[id] = true
			attach(id, name, sr.Scores[id])
			if !considered[id] {
				considered[id] = true
				grew = true
			}
		}
	}
	if grew {
		ids := make([]vanet.NodeID, 0, len(considered))
		for id := range considered {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		res.Considered = ids
	}
	res.Signals = signals
	return nil
}

// Confirmed returns the identities currently confirmed as Sybil under the
// multi-period rule. It is a read-only snapshot: calling it between
// detection periods does not advance the K-of-N window.
func (m *Monitor) Confirmed() map[vanet.NodeID]bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.confirmer.Confirmed()
}

// Tracked returns how many identities the monitor currently buffers.
func (m *Monitor) Tracked() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.series)
}

// Now returns the monitor clock: the latest observation (or DetectAt)
// time seen so far.
func (m *Monitor) Now() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Evicted returns the cumulative count of identities evicted for silence.
func (m *Monitor) Evicted() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evicted
}

// evictLocked drops identities that have gone silent, bounding memory on
// long drives past thousands of vehicles. Callers hold m.mu.
//
// voiceprintvet:holds mu
func (m *Monitor) evictLocked() {
	for id, last := range m.lastObs {
		if m.now-last > m.evictAfter {
			delete(m.series, id)
			delete(m.lastObs, id)
			delete(m.views, id)
			delete(m.claims, id)
			m.confirmer.Forget(id)
			m.evicted++
		}
	}
	// Trim retired history in place (amortized O(1), no allocation) so
	// evicted prefixes do not pin memory forever; the kept series never
	// shrink below the observation window, even with an aggressive
	// EvictAfter.
	keep := m.evictAfter
	if m.window > keep {
		keep = m.window
	}
	from := m.now - keep
	if from < 0 {
		return
	}
	for _, s := range m.series {
		s.TrimBefore(from)
	}
	for id, cs := range m.claims {
		lo := sort.Search(len(cs), func(i int) bool { return cs[i].T >= from })
		if lo == 0 {
			continue
		}
		// Shift in place so the retained tail does not pin the trimmed
		// prefix through the shared backing array.
		n := copy(cs, cs[lo:])
		m.claims[id] = cs[:n]
	}
}
