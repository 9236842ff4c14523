package deprecated_test

import (
	"testing"

	"voiceprint/internal/analysis/deprecated"
	"voiceprint/internal/analysis/vet/vettest"
)

func TestInternalCallers(t *testing.T) {
	vettest.Run(t, deprecated.Analyzer, "testdata/src/fixture", "voiceprint/internal/fixture")
}

func TestExternalCallersExempt(t *testing.T) {
	// The fields survive precisely for code outside the module; the same
	// fixture under an external import path must be clean.
	vettest.RunExpectClean(t, deprecated.Analyzer, "testdata/src/fixture", "example.com/consumer")
}
