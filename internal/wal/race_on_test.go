//go:build race

package wal

// raceEnabled reports that this binary was built with -race, whose
// instrumentation inflates allocation counts.
const raceEnabled = true
