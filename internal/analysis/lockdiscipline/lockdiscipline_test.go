package lockdiscipline_test

import (
	"testing"

	"voiceprint/internal/analysis/lockdiscipline"
	"voiceprint/internal/analysis/vet/vettest"
)

func TestLockDiscipline(t *testing.T) {
	vettest.Run(t, lockdiscipline.Analyzer, "testdata/src/fixture", "voiceprint/internal/fixture")
}
