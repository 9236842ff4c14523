// Command voiceprintvet is the repository's invariant multichecker: a
// standalone analysis driver enforcing the guarantees the Voiceprint
// reproduction depends on — deterministic detection output, NaN/Inf
// safety at every RSSI boundary, mutex contracts, and goroutine
// hygiene. It complements `go vet ./...`, whose copylocks check covers
// copies of mutex-holding structs; the hot paths' allocation budgets
// are testing.AllocsPerRun tests in the packages that own them.
//
// Usage:
//
//	go build -o bin/voiceprintvet ./cmd/voiceprintvet
//	bin/voiceprintvet ./...                   # analyzers, non-test files
//	bin/voiceprintvet help                    # list analyzers
//
// Suppress a deliberate exception with
//
//	//voiceprintvet:ignore <analyzer> <reason>
//
// on the offending line or the line directly above it; the reason is
// mandatory. See DESIGN.md §8 for each analyzer's invariant.
package main

import (
	"voiceprint/internal/analysis/goroutinehygiene"
	"voiceprint/internal/analysis/lockdiscipline"
	"voiceprint/internal/analysis/nondeterminism"
	"voiceprint/internal/analysis/nonfinite"
	"voiceprint/internal/analysis/vet"
)

func main() {
	vet.Main(
		nondeterminism.Analyzer,
		nonfinite.Analyzer,
		lockdiscipline.Analyzer,
		goroutinehygiene.Analyzer,
	)
}
