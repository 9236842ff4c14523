// Package stats provides the small statistical substrate the Voiceprint
// reproduction needs: descriptive statistics, ordinary least squares
// regression, histograms, and the hypothesis tests used by Observation 1
// (normality of RSSI distributions), by the CPVSAD baseline (normal tail
// probabilities combined with Fisher's method) and by the fusion
// position signal (chi-square tails).
//
// Everything operates on plain []float64 and is deterministic; random
// sampling helpers take an explicit *rand.Rand.
package stats
