package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"voiceprint/internal/timeseries"
	"voiceprint/internal/vanet"
)

// Signal is one pluggable detection signal: a pure function from one
// round's windowed evidence to per-identity verdicts and scores. The
// Monitor runs the Voiceprint DTW pipeline itself, attributed as
// SignalName, then every configured Signal over the same observation
// window, and fuses the suspect sets. The fusion package adds
// claimed-position consistency and, at the service layer,
// cross-receiver clique grouping.
//
// Contract: Analyze must be deterministic — a pure function of the
// input — and must treat the input as read-only (Series are zero-copy
// views into the monitor's ring buffers; Claims share the monitor's
// backing array). Scores must be finite; identities a signal cannot
// test simply do not appear in the result.
type Signal interface {
	// Name identifies the signal in Result.Signals attribution maps and
	// wire events ("voiceprint", "position", ...). Names must be
	// non-empty and unique within a fusion configuration.
	Name() string
	// Analyze runs the signal over one round's window.
	Analyze(in *SignalInput) (*SignalResult, error)
}

// ClaimSample is one beacon's claimed-position evidence: where the
// sender claimed to be — in the receiver's local frame, meters — and
// the RSSI it was actually received at.
type ClaimSample struct {
	// T is the (monitor-clamped) reception time.
	T time.Duration
	// X and Y are the claimed position relative to the receiver, so the
	// claimed range is hypot(X, Y).
	X, Y float64
	// RSSI is the received signal strength of the same beacon (dBm).
	RSSI float64
}

// SignalInput is one round's evidence, shared by every signal.
type SignalInput struct {
	// WindowStart and WindowEnd bound the observation window
	// [WindowStart, WindowEnd] the evidence was sliced from.
	WindowStart, WindowEnd time.Duration
	// Density is the Equation 9 density estimate for the round.
	Density float64
	// Series maps each heard identity to its windowed RSSI series
	// (read-only zero-copy views).
	Series map[vanet.NodeID]*timeseries.Series
	// Claims maps each identity to its claimed-position samples inside
	// the window, in reception order. Identities whose beacons carried
	// no position are absent.
	Claims map[vanet.NodeID][]ClaimSample
}

// SignalResult is one signal's verdict for one round.
type SignalResult struct {
	// Suspects holds the identities this signal flags.
	Suspects map[vanet.NodeID]bool
	// Scores holds per-identity evidence strength for attribution (the
	// meaning is signal-specific: normalized DTW distance, chi-square
	// statistic, ...). Scores may cover tested-but-clean identities.
	Scores map[vanet.NodeID]float64
	// Tested lists the identities the signal had enough evidence to
	// judge, ascending. Fusion unions these into Result.Considered so a
	// flagged identity is always accounted in the round it was flagged.
	Tested []vanet.NodeID
	// Skipped counts identities with too little evidence to judge.
	Skipped int
}

// FusionOptions is the single fusion knob block on MonitorConfig: the
// extra signals a monitor runs after the Voiceprint round. The zero
// value disables fusion entirely and is bit-identical to the
// single-signal pipeline.
type FusionOptions struct {
	// Enabled turns the fusion round on. When false the monitor ignores
	// claimed positions and Signals.
	Enabled bool
	// Signals are the additional per-receiver signals, run in order
	// after the built-in Voiceprint comparison each round. Each must
	// have a unique non-empty Name.
	Signals []Signal
}

// SignalName is the attribution key of the built-in DTW signal.
const SignalName = "voiceprint"

// Validate rejects malformed fusion configurations: nil signals and
// empty, duplicate or reserved names.
func (o FusionOptions) Validate() error {
	if !o.Enabled {
		if len(o.Signals) > 0 {
			return errors.New("core: fusion signals configured but Enabled is false")
		}
		return nil
	}
	seen := make(map[string]bool, len(o.Signals)+1)
	seen[SignalName] = true
	for i, s := range o.Signals {
		if s == nil {
			return fmt.Errorf("core: fusion signal %d is nil", i)
		}
		name := s.Name()
		if name == "" {
			return fmt.Errorf("core: fusion signal %d has an empty name", i)
		}
		if seen[name] {
			return fmt.Errorf("core: duplicate fusion signal name %q", name)
		}
		seen[name] = true
	}
	return nil
}

// VoiceprintScores projects pair evidence onto identities: each flagged
// identity's score is the smallest normalized distance among its
// flagged pairs — the strength of its best same-transmitter match. The
// result is written into dst (allocated when nil) and returned.
func VoiceprintScores(pairs []PairDistance, dst map[vanet.NodeID]float64) map[vanet.NodeID]float64 {
	if dst == nil {
		dst = make(map[vanet.NodeID]float64)
	}
	record := func(id vanet.NodeID, d float64) {
		if have, ok := dst[id]; !ok || d < have {
			dst[id] = d
		}
	}
	for i := range pairs {
		if !pairs[i].Flagged {
			continue
		}
		record(pairs[i].A, pairs[i].Normalized)
		record(pairs[i].B, pairs[i].Normalized)
	}
	return dst
}

// finiteClaim reports whether a claim sample's fields are all finite.
func finiteClaim(c ClaimSample) bool {
	return !math.IsNaN(c.X) && !math.IsInf(c.X, 0) &&
		!math.IsNaN(c.Y) && !math.IsInf(c.Y, 0) &&
		!math.IsNaN(c.RSSI) && !math.IsInf(c.RSSI, 0)
}
