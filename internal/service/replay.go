package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"voiceprint/internal/trace"
	"voiceprint/internal/vanet"
)

// ReplayConfig configures a trace replay.
type ReplayConfig struct {
	// Registry is the per-receiver monitor shard configuration (same as
	// the live server's).
	Registry RegistryConfig
	// Period is the detection period in stream time: rounds fire at
	// every multiple of it, pinned to the exact boundary, which is what
	// makes replay reproducible and byte-comparable with the offline
	// batch CLI. Zero means the monitor's observation window.
	Period time.Duration
}

// Replay feeds a recorded trace CSV (the cmd/vanet-sim format), as fast
// as the detector keeps up, through the same ingest path as the live
// server — per-record registry routing with reorder tolerance and drop
// accounting — firing a detection round for a receiver each time that
// receiver's stream crosses a period boundary, and handing each outcome
// to sink in stream order. Boundaries
// are clocked per receiver, so replay is insensitive to whether the
// trace is globally time-sorted or grouped by receiver (cmd/vanet-sim
// writes one block per observer). metrics may be nil; sink may be nil.
//
// Replay returns the registry so callers can inspect final confirmation
// state.
func Replay(ctx context.Context, r io.Reader, cfg ReplayConfig, metrics *Metrics, sink func(RoundOutcome)) (*Registry, error) {
	if metrics == nil {
		metrics = &Metrics{}
	}
	if cfg.Period == 0 {
		cfg.Period = cfg.Registry.Monitor.Detector.ObservationTime
	}
	if cfg.Period == 0 {
		cfg.Period = 20 * time.Second
	}
	if cfg.Period < 0 {
		return nil, errors.New("service: negative replay period")
	}
	reg, err := NewRegistry(cfg.Registry, metrics)
	if err != nil {
		return nil, err
	}
	// Replay rounds run one at a time through DetectOne, which takes no
	// worker slot, so the pool size is moot.
	sched, err := NewScheduler(reg, metrics, 1, nil)
	if err != nil {
		return nil, err
	}

	fire := func(recv vanet.NodeID, at time.Duration) {
		out := sched.DetectOne(recv, at)
		if sink != nil {
			sink(out)
		}
	}

	next := make(map[vanet.NodeID]time.Duration)
	err = trace.ScanCSV(r, func(rec trace.Record) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Fire every boundary this receiver's stream has crossed; a
		// record landing exactly on a boundary is observed after that
		// boundary's round, matching the offline windowing. A receiver
		// that first appears past a boundary has no monitor to round yet.
		nb, ok := next[rec.Receiver]
		if !ok {
			nb = cfg.Period
		}
		for rec.T >= nb {
			if reg.Monitor(rec.Receiver) != nil {
				fire(rec.Receiver, nb)
			}
			nb += cfg.Period
		}
		next[rec.Receiver] = nb
		return reg.Observe(Observation{
			Recv:   rec.Receiver,
			Sender: rec.Sender,
			TMs:    rec.T.Milliseconds(),
			RSSI:   rec.RSSI,
		})
	})
	if err != nil {
		return reg, fmt.Errorf("service: replay: %w", err)
	}
	// One closing round per receiver past its last record, mirroring the
	// offline loop's final window over the trace tail.
	for _, recv := range reg.Receivers() {
		fire(recv, next[recv])
	}
	return reg, nil
}
