// Fixture for the deprecated-internal analyzer checked as an internal
// voiceprint package (see deprecated_test.go; external import paths are
// exempt — the fields are kept for them).
package fixture

import (
	"voiceprint/internal/core"
	"voiceprint/internal/service"
)

func useInert(cfg core.MonitorConfig, m *service.Metrics) uint64 {
	_ = cfg.DisablePairCache         // want "MonitorConfig.DisablePairCache is deprecated for internal use"
	return m.PairsReusedDirty.Load() // want "Metrics.PairsReusedDirty is deprecated for internal use"
}

func setInert() core.MonitorConfig {
	return core.MonitorConfig{DisablePairCache: true} // want "MonitorConfig.DisablePairCache is deprecated for internal use"
}

func replacementsOK(cfg core.MonitorConfig, m *service.Metrics) uint64 {
	_ = cfg.Detector.LBPrune
	return m.PairsCompared.Load() + m.PairsPrunedLB.Load()
}
