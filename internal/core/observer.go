package core

import "time"

// Stage identifies one phase of a detection round for instrumentation.
// The stages partition a round's wall-clock time: window extraction and
// density estimation happen under the Monitor's lock before the detector
// runs, the remaining stages are Detector.Detect's three algorithm
// phases with comparison split from confirmation (pairwise DTW is the
// round's O(n²) heart and the quantity Table VI tracks against
// density, so it gets its own bucket).
type Stage uint8

const (
	// StageWindow is the Monitor's pre-round work: zero-copy window view
	// extraction and density estimation. Bare Detector rounds never
	// report it.
	StageWindow Stage = iota
	// StageCollect filters usable identities (sample-count and median-
	// RSSI floors) — Algorithm 1's collection phase.
	StageCollect
	// StageNormalize Z-scores every usable series (Equation 7) and
	// estimates per-series noise for the adaptive cap.
	StageNormalize
	// StageCompare runs the pairwise DTW loop and the Equation 8
	// min-max normalization of the distance batch.
	StageCompare
	// StageConfirm evaluates the density-adaptive boundary and the raw-
	// distance caps, building the suspect set.
	StageConfirm
	// NumStages is the number of stages; valid stages are < NumStages.
	NumStages
)

// String returns the stage's wire/metric label.
func (s Stage) String() string {
	switch s {
	case StageWindow:
		return "window"
	case StageCollect:
		return "collect"
	case StageNormalize:
		return "normalize"
	case StageCompare:
		return "compare"
	case StageConfirm:
		return "confirm"
	default:
		return "unknown"
	}
}

// Observer receives per-stage wall-clock timings of detection rounds.
// Implementations must be safe for concurrent use (one Monitor per
// receiver may run rounds in parallel with others sharing the observer)
// and must not block: ObserveStage is called on the detection hot path.
// Implementations should also not retain references derived from the
// call; the contract is fire-and-forget measurement.
//
// A nil Config.Observer disables instrumentation entirely — the hot
// path then takes no clock readings and allocates nothing extra.
type Observer interface {
	ObserveStage(stage Stage, d time.Duration)
}
