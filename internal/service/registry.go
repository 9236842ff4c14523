package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/lda"
	"voiceprint/internal/vanet"
	"voiceprint/internal/wal"
)

// reorderTolerance is how far out of order an observation may arrive and
// still be accepted: a handful of beacon intervals of network reordering.
const reorderTolerance = 500 * time.Millisecond

// DefaultMonitorConfig is the detection posture: the one monitor
// configuration voiceprintd ships, cmd/voiceprint replays with and the
// scorecard grades. It is the EXPERIMENTS.md Figure 10 boundary fit,
// the paper's multi-period confirmation (2 flags in 3 rounds) and
// pruning on, over the 20 s window, with reordering and eviction stated
// rather than left to zero-value defaults. MaxRangeM is left to the
// caller: Equation 9's Dist_max belongs to the deployment, not the
// posture.
func DefaultMonitorConfig() core.MonitorConfig {
	det := core.DefaultConfig(lda.Boundary{K: 0.000022, B: 0.0067})
	// Pruning leaves verdicts bit-identical: only a pair that cannot be
	// flagged keeps a lower bound in place of its distance.
	det.LBPrune = true
	return core.MonitorConfig{
		Detector:         det,
		ConfirmWindow:    3,
		ConfirmNeed:      2,
		EvictAfter:       2 * det.ObservationTime,
		ReorderTolerance: reorderTolerance,
	}
}

// RegistryConfig configures the per-receiver monitor shard.
type RegistryConfig struct {
	// Monitor is the template configuration instantiated for every
	// receiver that appears on the wire. Its ReorderTolerance bounds how
	// far back in time an observation may arrive relative to its
	// receiver's newest observation and still be accepted (clamped
	// forward); anything older is dropped as stale. Here zero means
	// DefaultMonitorConfig's 500 ms and negative means strict
	// monotonicity.
	Monitor core.MonitorConfig
	// MaxReceivers bounds how many receiver monitors the registry will
	// materialize; observations for additional receivers are dropped
	// with accounting. Zero means 4096.
	MaxReceivers int
}

// Registry shards observation streams into per-receiver core.Monitor
// instances. It is safe for concurrent use by any number of ingest
// connections and scheduler workers.
type Registry struct {
	cfg     RegistryConfig
	metrics *Metrics
	// journal, when non-nil, receives every observation before it is
	// applied (write-ahead). Installed once at boot, after recovery
	// replay, so replayed observations do not re-journal. Ingest
	// listeners may already be observing when the install happens, so
	// the pointer is atomic: a plain field would be a data race between
	// SetJournal and every Observe.
	journal atomic.Pointer[wal.Log]

	mu       sync.RWMutex
	monitors map[vanet.NodeID]*core.Monitor // voiceprintvet:guardedby mu
}

// NewRegistry builds a Registry. The monitor template is validated
// eagerly by constructing (and discarding) one instance, so a bad
// configuration fails at startup rather than on first beacon. Unless
// the caller installed a core.Observer of their own, every monitor is
// instrumented with the metrics' per-stage latency histograms.
func NewRegistry(cfg RegistryConfig, metrics *Metrics) (*Registry, error) {
	if metrics == nil {
		return nil, errors.New("service: nil metrics")
	}
	if cfg.Monitor.ReorderTolerance == 0 {
		cfg.Monitor.ReorderTolerance = reorderTolerance
	}
	if cfg.Monitor.Detector.Observer == nil {
		cfg.Monitor.Detector.Observer = metrics.StageObserver()
	}
	if _, err := core.NewMonitor(cfg.Monitor); err != nil {
		return nil, fmt.Errorf("service: monitor template: %w", err)
	}
	if cfg.MaxReceivers == 0 {
		cfg.MaxReceivers = 4096
	}
	return &Registry{
		cfg:      cfg,
		metrics:  metrics,
		monitors: make(map[vanet.NodeID]*core.Monitor),
	}, nil
}

// SetJournal installs the write-ahead log. Call it once at boot, after
// recovery replay has finished and before ingest starts, so replayed
// observations are not journaled a second time.
func (r *Registry) SetJournal(l *wal.Log) { r.journal.Store(l) }

// Observe routes one observation to its receiver's monitor, creating the
// monitor on first contact. Stale observations (older than the reorder
// tolerance) and observations beyond the receiver capacity are dropped
// and accounted, not errored: a drop is a normal streaming event. The
// returned error is reserved for hard failures (corrupt monitor state).
//
// With a journal installed the observation is journaled before it is
// applied, under the snapshot barrier, so a crash between the two
// replays it (the drop/clamp decisions re-resolve identically because
// the monitor pipeline is deterministic). A journal append failure is
// deliberately not fatal to the apply: availability over durability.
func (r *Registry) Observe(o Observation) error {
	var rec [1]wal.Record
	_, err := r.observeBatch([]Observation{o}, rec[:0])
	return err
}

// observeBatch is Observe over a run of observations in arrival order.
// With a journal installed the whole run is journaled in one WAL write
// before any of it is applied, under one hold of the snapshot barrier.
// recs is the caller's scratch for the journal records; observeBatch
// returns it, grown as needed, for the next call. Every observation is
// applied; the first hard failure is returned.
func (r *Registry) observeBatch(obs []Observation, recs []wal.Record) ([]wal.Record, error) {
	if l := r.journal.Load(); l != nil {
		recs = recs[:0]
		for _, o := range obs {
			recs = append(recs, journalRecord(o))
		}
		l.Begin()
		defer l.End()
		_ = l.Append(recs...)
	}
	var first error
	for _, o := range obs {
		if err := r.observe(o); err != nil && first == nil {
			first = err
		}
	}
	return recs, first
}

// journalRecord is the WAL record of one observation. Positioned beacons
// journal their claim even on fusion-off daemons: the kind-3 record
// replays as a plain observation there, and keeps the evidence for a
// later fusion-on restart.
func journalRecord(o Observation) wal.Record {
	rec := wal.Record{Kind: wal.KindObservation, Recv: o.Recv, Sender: o.Sender, T: o.T(), RSSI: o.RSSI}
	if o.Pos != nil {
		rec.Kind, rec.X, rec.Y = wal.KindObservationPos, o.Pos.X, o.Pos.Y
	}
	return rec
}

// observe is the journal-free apply path; recovery replay calls it via
// Observe before the journal is installed.
func (r *Registry) observe(o Observation) error {
	mon, err := r.monitor(o.Recv)
	if err != nil {
		return err
	}
	if mon == nil {
		r.metrics.ReceiversRejected.Add(1)
		return nil
	}
	if o.Pos != nil {
		err = mon.ObserveWithClaim(o.Sender, o.T(), o.RSSI, o.Pos.X, o.Pos.Y)
	} else {
		err = mon.Observe(o.Sender, o.T(), o.RSSI)
	}
	if errors.Is(err, core.ErrTimeBackwards) {
		r.metrics.StaleDropped.Add(1)
		return nil
	}
	if errors.Is(err, core.ErrNonFinitePosition) {
		// The wire parser already rejects non-finite positions; this
		// guards the replay path, where claim bits come straight off disk.
		r.metrics.MalformedDropped.Add(1)
		return nil
	}
	if errors.Is(err, core.ErrNonFiniteRSSI) {
		// Belt and braces behind ParseObservation: the replay path reads
		// trace CSVs, where strconv happily parses "NaN", and a NaN that
		// reaches a series silently poisons every DTW distance downstream.
		r.metrics.MalformedDropped.Add(1)
		return nil
	}
	if err != nil {
		return err
	}
	r.metrics.ObservationsIngested.Add(1)
	return nil
}

// monitor returns the receiver's monitor, materializing it on demand;
// nil (no error) means the registry is at capacity.
func (r *Registry) monitor(recv vanet.NodeID) (*core.Monitor, error) {
	r.mu.RLock()
	mon := r.monitors[recv]
	r.mu.RUnlock()
	if mon != nil {
		return mon, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if mon := r.monitors[recv]; mon != nil {
		return mon, nil
	}
	if len(r.monitors) >= r.cfg.MaxReceivers {
		return nil, nil
	}
	mon, err := core.NewMonitor(r.cfg.Monitor)
	if err != nil {
		return nil, fmt.Errorf("service: monitor for receiver %d: %w", recv, err)
	}
	r.monitors[recv] = mon
	return mon, nil
}

// Monitor returns the receiver's monitor, or nil if it has never been
// heard from.
func (r *Registry) Monitor(recv vanet.NodeID) *core.Monitor {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.monitors[recv]
}

// Receivers lists the materialized receivers in ascending ID order.
func (r *Registry) Receivers() []vanet.NodeID {
	r.mu.RLock()
	out := make([]vanet.NodeID, 0, len(r.monitors))
	for id := range r.monitors {
		out = append(out, id)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TrackedTotal sums the identities currently buffered across receivers.
func (r *Registry) TrackedTotal() int {
	total := 0
	for _, recv := range r.Receivers() {
		if mon := r.Monitor(recv); mon != nil {
			total += mon.Tracked()
		}
	}
	return total
}

// EvictedTotal sums the identities evicted for silence across receivers.
func (r *Registry) EvictedTotal() uint64 {
	var total uint64
	for _, recv := range r.Receivers() {
		if mon := r.Monitor(recv); mon != nil {
			total += mon.Evicted()
		}
	}
	return total
}

// CaptureState deep-copies every receiver's durable monitor state, in
// ascending receiver order. The WAL layer calls it under the snapshot
// barrier, so no journal-and-apply step is in flight while it runs.
func (r *Registry) CaptureState() []wal.ReceiverState {
	recvs := r.Receivers()
	out := make([]wal.ReceiverState, 0, len(recvs))
	for _, recv := range recvs {
		mon := r.Monitor(recv)
		if mon == nil {
			continue
		}
		out = append(out, wal.ReceiverState{Recv: recv, State: mon.State()})
	}
	return out
}

// RestoreMonitor materializes a receiver's monitor from a recovered
// snapshot state. It is a boot-time operation: the receiver must not
// already exist, and capacity limits still apply (a snapshot from a
// larger configuration fails loudly rather than silently dropping
// state).
func (r *Registry) RestoreMonitor(recv vanet.NodeID, st *core.MonitorState) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.monitors[recv] != nil {
		return fmt.Errorf("service: restore: receiver %d already materialized", recv)
	}
	if len(r.monitors) >= r.cfg.MaxReceivers {
		return fmt.Errorf("service: restore: receiver %d exceeds the %d-receiver capacity", recv, r.cfg.MaxReceivers)
	}
	mon, err := core.NewMonitor(r.cfg.Monitor)
	if err != nil {
		return fmt.Errorf("service: restore receiver %d: %w", recv, err)
	}
	if err := mon.RestoreState(st); err != nil {
		return fmt.Errorf("service: restore receiver %d: %w", recv, err)
	}
	r.monitors[recv] = mon
	return nil
}

// ConfirmedTotal sums the identities currently confirmed as Sybil across
// receivers.
func (r *Registry) ConfirmedTotal() int {
	total := 0
	for _, recv := range r.Receivers() {
		if mon := r.Monitor(recv); mon != nil {
			total += len(mon.Confirmed())
		}
	}
	return total
}
