// A _test.go file may touch the deprecated fields: the driver drops
// diagnostics in test files.
package fixture

import "voiceprint/internal/core"

func inertCoverage() core.MonitorConfig {
	return core.MonitorConfig{DisablePairCache: true}
}
