// Package metrics scores Sybil detection outcomes using the paper's
// Equations 10-13: per-receiver per-period detection rate (detected
// illegitimate identities over all illegitimate identities heard) and
// false positive rate (normal identities wrongly flagged over all normal
// identities heard), averaged over receivers and detection periods.
package metrics

import (
	"errors"
	"fmt"

	"voiceprint/internal/vanet"
)

// Counts are the raw tallies of one detection instance (one receiver, one
// detection period).
type Counts struct {
	// TruePositives N_T: illegitimate identities flagged.
	TruePositives int
	// FalsePositives N_F: normal identities flagged.
	FalsePositives int
	// Illegitimate is the denominator of Equation 10: heard malicious +
	// Sybil identities.
	Illegitimate int
	// Normal is the denominator of Equation 11: heard normal identities.
	Normal int
}

// Score tallies one detection outcome: heard is every identity the
// receiver observed this period, suspects the identities the detector
// flagged, truth the ground truth. Suspects not in heard are ignored (a
// detector cannot flag what it never heard; flagging such an ID indicates
// a bug upstream and is surfaced as an error).
func Score(heard []vanet.NodeID, suspects map[vanet.NodeID]bool, truth vanet.Truth) (Counts, error) {
	heardSet := make(map[vanet.NodeID]bool, len(heard))
	for _, id := range heard {
		heardSet[id] = true
	}
	for id := range suspects {
		if suspects[id] && !heardSet[id] {
			return Counts{}, fmt.Errorf("metrics: suspect %d was never heard", id)
		}
	}
	var c Counts
	for _, id := range heard {
		if truth.Illegitimate(id) {
			c.Illegitimate++
			if suspects[id] {
				c.TruePositives++
			}
		} else {
			c.Normal++
			if suspects[id] {
				c.FalsePositives++
			}
		}
	}
	return c, nil
}

// DR is Equation 10 for one instance. Instances with no illegitimate
// identities heard return ok=false (the term is undefined and must be
// skipped, not counted as zero).
func (c Counts) DR() (float64, bool) {
	if c.Illegitimate == 0 {
		return 0, false
	}
	return float64(c.TruePositives) / float64(c.Illegitimate), true
}

// FPR is Equation 11 for one instance; ok=false when no normal identities
// were heard.
func (c Counts) FPR() (float64, bool) {
	if c.Normal == 0 {
		return 0, false
	}
	return float64(c.FalsePositives) / float64(c.Normal), true
}

// Aggregator accumulates per-instance rates into the averages of
// Equations 12-13.
type Aggregator struct {
	drSum    float64
	drCount  int
	fprSum   float64
	fprCount int
}

// Add folds in one instance.
func (a *Aggregator) Add(c Counts) {
	if dr, ok := c.DR(); ok {
		a.drSum += dr
		a.drCount++
	}
	if fpr, ok := c.FPR(); ok {
		a.fprSum += fpr
		a.fprCount++
	}
}

// ErrNoInstances is returned when an average is requested before any
// instance contributed.
var ErrNoInstances = errors.New("metrics: no detection instances")

// MeanDR is Equation 12.
func (a *Aggregator) MeanDR() (float64, error) {
	if a.drCount == 0 {
		return 0, ErrNoInstances
	}
	return a.drSum / float64(a.drCount), nil
}

// MeanFPR is Equation 13.
func (a *Aggregator) MeanFPR() (float64, error) {
	if a.fprCount == 0 {
		return 0, ErrNoInstances
	}
	return a.fprSum / float64(a.fprCount), nil
}
