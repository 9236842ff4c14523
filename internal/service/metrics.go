package service

import (
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/obs"
	"voiceprint/internal/wal"
)

// Metrics are the daemon's operational instruments, built on the
// internal/obs registry layer: lock-free counters updated from ingest
// and scheduler goroutines, plus latency histograms for the round hot
// path. Every instrument is a value field whose zero value is ready to
// use, so `&Metrics{}` works exactly as it did when the fields were raw
// atomics; the obs.Registry produced by Instruments only references
// them for rendering.
//
// Each Snapshot key is also the counter's Prometheus family name (with
// the voiceprintd_ prefix); testdata/metrics_golden.prom pins them all.
type Metrics struct {
	// ObservationsIngested counts beacons accepted into a monitor.
	ObservationsIngested obs.Counter
	// MalformedDropped counts inbound lines that failed to parse or
	// validate.
	MalformedDropped obs.Counter
	// StaleDropped counts observations rejected for regressing further
	// back in time than the reorder tolerance (ErrTimeBackwards).
	StaleDropped obs.Counter
	// BackpressureDropped counts observations shed because a
	// connection's bounded ingest buffer was full.
	BackpressureDropped obs.Counter
	// OversizedDropped counts inbound lines discarded for exceeding
	// MaxLineBytes; the connection survives, only the line is shed.
	OversizedDropped obs.Counter
	// EventsDropped counts verdict events shed because a subscriber's
	// outbound buffer was full.
	EventsDropped obs.Counter
	// IdleDisconnects counts connections closed because no inbound data
	// arrived within the read idle timeout.
	IdleDisconnects obs.Counter
	// SlowClientsEvicted counts connections closed because an event
	// write did not complete within the write timeout (a stalled reader
	// on the far side must not pin daemon memory or goroutines).
	SlowClientsEvicted obs.Counter
	// ConnsForceClosed counts connections force-closed at shutdown after
	// the graceful drain timeout expired.
	ConnsForceClosed obs.Counter
	// ReceiversRejected counts observations dropped because the registry
	// was at its receiver capacity.
	ReceiversRejected obs.Counter
	// RoundsRun counts every detection round that returned, successful
	// or errored. Coalesced ticks (skipped before running) and panicked
	// rounds are counted separately and are NOT in RoundsRun.
	RoundsRun obs.Counter
	// RoundErrors counts detection rounds that returned an error.
	RoundErrors obs.Counter
	// RoundPanics counts detection rounds that panicked and were
	// recovered into an errored outcome (a detector bug must not take
	// the daemon down with it).
	RoundPanics obs.Counter
	// RoundsCoalesced counts scheduled rounds skipped because the same
	// receiver's previous round was still in flight.
	RoundsCoalesced obs.Counter
	// SuspectsFlagged counts identity flags summed over rounds.
	SuspectsFlagged obs.Counter
	// PairsCompared counts pairwise comparisons resolved by a full DTW
	// computation; PairsPrunedLB those resolved by a lower bound (an
	// early-abandoned DP scan). Together they sum to the pairs enumerated
	// over all rounds — the prune rate is PairsPrunedLB over that sum,
	// the compare phase's cost model in one scrape.
	PairsCompared, PairsPrunedLB obs.Counter
	// Deprecated: PairsReusedDirty always reads zero and is not exported
	// on /metrics; the dirty-pair cache it counted was removed. It is
	// kept only because the benchmark module (perfbench) still names it.
	PairsReusedDirty obs.Counter
	// WALAppends counts records journaled to the write-ahead log;
	// WALAppendErrors counts appends that failed (the in-memory apply
	// proceeds regardless — availability over durability).
	WALAppends, WALAppendErrors obs.Counter
	// WALFsyncs counts fsyncs of the active WAL segment (group commits
	// under the interval policy, one per append under always).
	WALFsyncs obs.Counter
	// WALReplayedRecords counts journal records re-applied during boot
	// recovery; WALTruncations counts torn or corrupt segment tails cut
	// off during recovery.
	WALReplayedRecords, WALTruncations obs.Counter
	// WALSnapshots counts compacted snapshots written; WALSnapshotErrors
	// counts snapshot attempts that failed.
	WALSnapshots, WALSnapshotErrors obs.Counter
	// ConnsOpened and ConnsClosed count ingest connections.
	ConnsOpened, ConnsClosed obs.Counter

	// RoundLatency is the wall-clock latency histogram over every round
	// counted by RoundsRun; its sum is the total round time. Fixed
	// log-spaced ns buckets; see internal/obs.
	RoundLatency obs.Histogram
	// IngestLag measures, per completed round, how far the receiver's
	// ingest clock had run past the round's evaluated window end — the
	// detection pipeline's lag behind the beacon stream. Zero while the
	// daemon keeps up; growing percentiles mean rounds are falling
	// behind ingest (the density-driven cost growth of Table VI).
	IngestLag obs.Histogram
	// StageLatency breaks round time down by detection stage (window
	// extraction, collection, normalization, pairwise DTW, confirmation),
	// fed through the core.Observer hook installed by NewRegistry.
	StageLatency [core.NumStages]obs.Histogram
	// WALFsyncLatency and WALSnapshotLatency time WAL fsyncs and snapshot
	// writes; repo convention keeps durations in nanoseconds (ns), like
	// the round histograms, rather than Prometheus-idiomatic seconds.
	WALFsyncLatency, WALSnapshotLatency obs.Histogram
	// WALSegmentBytes gauges the active segment size; WALSnapshotBytes
	// the newest snapshot's size.
	WALSegmentBytes, WALSnapshotBytes obs.Gauge
}

// Snapshot returns the counters as a name → value map, for in-process
// readers (the replay summary, the test kit's conservation accounting,
// the benchmark harness). Histograms are not part of this surface;
// scrape the Prometheus text format for distributions.
func (m *Metrics) Snapshot() map[string]uint64 {
	return map[string]uint64{
		"observations_ingested_total":    m.ObservationsIngested.Load(),
		"malformed_dropped_total":        m.MalformedDropped.Load(),
		"stale_dropped_total":            m.StaleDropped.Load(),
		"backpressure_dropped_total":     m.BackpressureDropped.Load(),
		"oversized_dropped_total":        m.OversizedDropped.Load(),
		"events_dropped_total":           m.EventsDropped.Load(),
		"idle_disconnects_total":         m.IdleDisconnects.Load(),
		"slow_clients_evicted_total":     m.SlowClientsEvicted.Load(),
		"connections_force_closed_total": m.ConnsForceClosed.Load(),
		"receivers_rejected_total":       m.ReceiversRejected.Load(),
		"rounds_run_total":               m.RoundsRun.Load(),
		"round_errors_total":             m.RoundErrors.Load(),
		"round_panics_total":             m.RoundPanics.Load(),
		"rounds_coalesced_total":         m.RoundsCoalesced.Load(),
		"suspects_flagged_total":         m.SuspectsFlagged.Load(),
		"pairs_compared_total":           m.PairsCompared.Load(),
		"pairs_pruned_lb_total":          m.PairsPrunedLB.Load(),
		"connections_opened_total":       m.ConnsOpened.Load(),
		"connections_closed_total":       m.ConnsClosed.Load(),
		"wal_appends_total":              m.WALAppends.Load(),
		"wal_append_errors_total":        m.WALAppendErrors.Load(),
		"wal_fsyncs_total":               m.WALFsyncs.Load(),
		"wal_replayed_records_total":     m.WALReplayedRecords.Load(),
		"wal_truncations_total":          m.WALTruncations.Load(),
		"wal_snapshots_total":            m.WALSnapshots.Load(),
		"wal_snapshot_errors_total":      m.WALSnapshotErrors.Load(),
	}
}

// walStats wires the WAL instruments into a wal.Stats for wal.Open.
func (m *Metrics) walStats() wal.Stats {
	return wal.Stats{
		Appends:         &m.WALAppends,
		AppendErrors:    &m.WALAppendErrors,
		Fsyncs:          &m.WALFsyncs,
		FsyncNs:         &m.WALFsyncLatency,
		SegmentBytes:    &m.WALSegmentBytes,
		Snapshots:       &m.WALSnapshots,
		SnapshotErrors:  &m.WALSnapshotErrors,
		SnapshotNs:      &m.WALSnapshotLatency,
		SnapshotBytes:   &m.WALSnapshotBytes,
		ReplayedRecords: &m.WALReplayedRecords,
		Truncations:     &m.WALTruncations,
	}
}

// StageObserver returns the core.Observer feeding the per-stage latency
// histograms. NewRegistry installs it into the monitor template when the
// caller hasn't provided an observer of their own.
func (m *Metrics) StageObserver() core.Observer { return stageObserver{m} }

// stageObserver adapts Metrics to the core.Observer hook. It is a
// one-word value (converting it to the interface does not allocate per
// call) and ObserveStage is two atomic adds.
type stageObserver struct{ m *Metrics }

func (o stageObserver) ObserveStage(s core.Stage, d time.Duration) {
	if int(s) < len(o.m.StageLatency) {
		o.m.StageLatency[s].Observe(d.Nanoseconds())
	}
}

// Instruments builds the obs.Registry rendering this Metrics value: all
// counters under their Snapshot names, the latency histograms, and — when
// reg is non-nil — the registry-derived identity gauges computed at
// scrape time. The returned registry only references the instruments;
// building one per admin handler is cheap and keeps registration
// single-shot.
func (m *Metrics) Instruments(reg *Registry) *obs.Registry {
	r := obs.NewRegistry("voiceprintd")
	r.Counter("observations_ingested_total", "Beacons accepted into a monitor.", &m.ObservationsIngested)
	r.Counter("malformed_dropped_total", "Inbound lines that failed to parse or validate.", &m.MalformedDropped)
	r.Counter("stale_dropped_total", "Observations older than the reorder tolerance.", &m.StaleDropped)
	r.Counter("backpressure_dropped_total", "Observations shed on a full per-connection ingest buffer.", &m.BackpressureDropped)
	r.Counter("oversized_dropped_total", "Inbound lines discarded for exceeding the line-length cap.", &m.OversizedDropped)
	r.Counter("events_dropped_total", "Verdict events shed on a full subscriber buffer.", &m.EventsDropped)
	r.Counter("idle_disconnects_total", "Connections closed for ingest silence past the idle timeout.", &m.IdleDisconnects)
	r.Counter("slow_clients_evicted_total", "Connections closed for stalling an event write past the write timeout.", &m.SlowClientsEvicted)
	r.Counter("connections_force_closed_total", "Connections force-closed after the shutdown drain timeout.", &m.ConnsForceClosed)
	r.Counter("receivers_rejected_total", "Observations dropped at the registry's receiver capacity.", &m.ReceiversRejected)
	r.Counter("rounds_run_total", "Detection rounds that returned (successful and errored).", &m.RoundsRun)
	r.Counter("round_errors_total", "Detection rounds that returned an error.", &m.RoundErrors)
	r.Counter("round_panics_total", "Detection rounds recovered from a panic.", &m.RoundPanics)
	r.Counter("rounds_coalesced_total", "Scheduled rounds skipped because the previous round was in flight.", &m.RoundsCoalesced)
	r.Counter("suspects_flagged_total", "Identity flags summed over rounds.", &m.SuspectsFlagged)
	r.Counter("pairs_compared_total", "Pairwise comparisons resolved by a full DTW computation.", &m.PairsCompared)
	r.Counter("pairs_pruned_lb_total", "Pairwise comparisons abandoned once their DTW lower bound cleared the cap or the boundary-derived threshold.", &m.PairsPrunedLB)
	r.Counter("connections_opened_total", "Ingest connections accepted.", &m.ConnsOpened)
	r.Counter("connections_closed_total", "Ingest connections closed.", &m.ConnsClosed)
	r.Counter("wal_appends_total", "Records journaled to the write-ahead log.", &m.WALAppends)
	r.Counter("wal_append_errors_total", "Journal appends that failed (the in-memory apply proceeded).", &m.WALAppendErrors)
	r.Counter("wal_fsyncs_total", "Fsyncs of the active WAL segment.", &m.WALFsyncs)
	r.Counter("wal_replayed_records_total", "Journal records re-applied during boot recovery.", &m.WALReplayedRecords)
	r.Counter("wal_truncations_total", "Torn or corrupt WAL segment tails truncated during recovery.", &m.WALTruncations)
	r.Counter("wal_snapshots_total", "Compacted monitor-state snapshots written.", &m.WALSnapshots)
	r.Counter("wal_snapshot_errors_total", "Snapshot attempts that failed.", &m.WALSnapshotErrors)

	r.Histogram("round_latency_ns", "Wall-clock detection round latency, nanoseconds.", &m.RoundLatency)
	r.Histogram("round_ingest_lag_ns", "Stream-time lag of a round's window end behind its receiver's ingest clock, nanoseconds.", &m.IngestLag)
	for s := core.Stage(0); s < core.NumStages; s++ {
		r.Histogram("round_stage_latency_ns", "Detection round stage latency, nanoseconds.", &m.StageLatency[s], "stage", s.String())
	}
	r.Histogram("wal_fsync_ns", "WAL fsync latency, nanoseconds.", &m.WALFsyncLatency)
	r.Histogram("wal_snapshot_ns", "Snapshot write latency (capture through rename), nanoseconds.", &m.WALSnapshotLatency)
	r.Gauge("wal_segment_bytes", "Size of the active WAL segment.", &m.WALSegmentBytes)
	r.Gauge("wal_snapshot_bytes", "Size of the newest snapshot file.", &m.WALSnapshotBytes)

	if reg != nil {
		r.GaugeFunc("receivers", "Receiver monitors materialized.", func() int64 {
			return int64(len(reg.Receivers()))
		})
		r.GaugeFunc("identities_tracked", "Identities currently buffered across receivers.", func() int64 {
			return int64(reg.TrackedTotal())
		})
		r.CounterFunc("identities_evicted_total", "Identities evicted for silence across receivers.", func() uint64 {
			return reg.EvictedTotal()
		})
		r.GaugeFunc("identities_confirmed", "Identities currently confirmed Sybil across receivers.", func() int64 {
			return int64(reg.ConfirmedTotal())
		})
	}
	return r
}
