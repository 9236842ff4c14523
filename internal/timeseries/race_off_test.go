//go:build !race

package timeseries

const raceEnabled = false
