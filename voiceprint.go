// Package voiceprint is the public facade of the Voiceprint reproduction:
// RSSI-based Sybil attack detection for VANETs (Yao et al., DSN 2017).
//
// The primary API is the Detector: feed it the RSSI time series a vehicle
// recorded per neighboring identity during an observation window plus a
// traffic-density estimate, and it returns the identities whose series are
// suspiciously similar — fabricated Sybil identities of one physical
// radio. Detection is model-free (no radio propagation model),
// independent (local observations only) and infrastructure-free (no RSU).
//
//	boundary, _ := voiceprint.TrainBoundary(points)    // or a constant
//	det, _ := voiceprint.NewDetector(voiceprint.DefaultDetectorConfig(boundary))
//	res, _ := det.Detect(seriesByID, densityPerKm)
//	for id := range res.Suspects { ... }
//
// The package re-exports the building blocks a downstream user needs
// (time series, DTW, the classifier, the simulation substrate); the
// internal packages carry the full implementations and their tests. The
// experiment harness that regenerates every table and figure of the paper
// lives in internal/experiments and is driven by cmd/experiments.
package voiceprint

import (
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/dtw"
	"voiceprint/internal/lda"
	"voiceprint/internal/timeseries"
	"voiceprint/internal/vanet"
)

// NodeID identifies one broadcast identity.
type NodeID = vanet.NodeID

// Series is an RSSI time series for one identity.
type Series = timeseries.Series

// NewSeries returns an empty series with capacity for n samples.
func NewSeries(n int) *Series { return timeseries.New(n) }

// SeriesFromValues builds a series from evenly spaced RSSI values.
func SeriesFromValues(values []float64, period time.Duration) *Series {
	return timeseries.FromValues(values, period)
}

// Boundary is the density-adaptive decision rule D <= K*den + B.
type Boundary = lda.Boundary

// TrainingPoint is one labelled pairwise comparison for boundary training.
type TrainingPoint = lda.Point

// ConstantBoundary returns a fixed-threshold boundary (the paper's field
// test uses 0.05046).
func ConstantBoundary(threshold float64) Boundary {
	return lda.Constant(threshold)
}

// TrainBoundary fits the production decision boundary from labelled
// pairwise comparisons (see internal/lda.TrainLine).
func TrainBoundary(points []TrainingPoint) (Boundary, error) {
	return lda.TrainLine(points, 8)
}

// TrainBoundaryLDA fits the boundary with classic Linear Discriminant
// Analysis, the paper's stated method.
func TrainBoundaryLDA(points []TrainingPoint) (Boundary, error) {
	return lda.Train(points)
}

// DetectorConfig configures a Detector.
type DetectorConfig = core.Config

// Detector runs Voiceprint detection rounds.
type Detector = core.Detector

// DetectionResult is one round's outcome.
type DetectionResult = core.Result

// DefaultDetectorConfig returns the paper's Table V detector settings for
// a trained boundary.
func DefaultDetectorConfig(boundary Boundary) DetectorConfig {
	return core.DefaultConfig(boundary)
}

// NewDetector builds a Detector.
func NewDetector(cfg DetectorConfig) (*Detector, error) {
	return core.New(cfg)
}

// MonitorConfig configures a Monitor.
type MonitorConfig = core.MonitorConfig

// Monitor is the streaming layer above the Detector: feed it timestamped
// RSSI observations as they arrive and ask for detection rounds over the
// trailing observation window. It buffers per-identity series, evicts
// silent identities, estimates density from the identities in view
// (Equation 9), and runs multi-period confirmation across rounds — the
// online counterpart of driving a Detector by hand.
type Monitor = core.Monitor

// Result is one streaming detection round's outcome, including the
// window it evaluated and the post-round confirmation set.
type Result = core.Result

// NewMonitor builds a streaming Monitor:
//
//	mon, _ := voiceprint.NewMonitor(voiceprint.MonitorConfig{
//		Detector: voiceprint.DefaultDetectorConfig(boundary),
//	})
//	for _, o := range beacons {
//		mon.Observe(o.Sender, o.T, o.RSSI) // as they arrive
//	}
//	res, _ := mon.Detect() // round over the trailing window
//	for id := range res.Confirmed { ... }
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	return core.NewMonitor(cfg)
}

// EstimateDensity is the paper's Equation 9: traffic density in
// vehicles/km from the count of legitimate identities heard and the
// maximum transmission range in meters.
func EstimateDensity(heardLegit int, maxRangeM float64) (float64, error) {
	return core.EstimateDensity(heardLegit, maxRangeM)
}

// Confirmer implements the paper's multi-period confirmation suggestion:
// an identity is confirmed Sybil once flagged in `need` of the last
// `window` rounds.
type Confirmer = core.Confirmer

// NewConfirmer builds a Confirmer.
func NewConfirmer(window, need int) (*Confirmer, error) {
	return core.NewConfirmer(window, need)
}

// DTWDistance is the exact DTW distance (Equations 3-6, squared cost).
func DTWDistance(x, y []float64) (float64, error) {
	return dtw.Distance(x, y)
}

// FastDTWDistance is the FastDTW approximation with the given radius.
func FastDTWDistance(x, y []float64, radius int) (float64, error) {
	return dtw.FastDistance(x, y, radius)
}
