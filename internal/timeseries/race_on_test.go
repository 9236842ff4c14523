//go:build race

package timeseries

// raceEnabled reports that this binary was built with -race, whose
// instrumentation inflates allocation counts.
const raceEnabled = true
