package nonfinite_test

import (
	"testing"

	"voiceprint/internal/analysis/nonfinite"
	"voiceprint/internal/analysis/vet/vettest"
)

func TestFloatEqualityAndMapKeys(t *testing.T) {
	vettest.Run(t, nonfinite.Analyzer, "testdata/src/strict", "voiceprint/internal/dtw")
}

func TestUncheckedIngest(t *testing.T) {
	vettest.Run(t, nonfinite.Analyzer, "testdata/src/append", "voiceprint/internal/trace")
}

func TestFloatEqualityInFusion(t *testing.T) {
	// The fusion signals are detection math: their deviations and
	// correlations are floats that must never be compared with ==.
	vettest.Run(t, nonfinite.Analyzer, "testdata/src/strict", "voiceprint/internal/fusion")
}

func TestFloatEqualityOutOfScope(t *testing.T) {
	// Float equality is only forbidden in the detection-math packages.
	vettest.RunExpectClean(t, nonfinite.Analyzer, "testdata/src/strict", "voiceprint/internal/service")
}

func TestIngestExemptInCore(t *testing.T) {
	// core.Monitor validates finiteness itself before appending; the
	// raw-Append rule must not fire inside the exempt packages.
	vettest.RunExpectClean(t, nonfinite.Analyzer, "testdata/src/append", "voiceprint/internal/core")
}
