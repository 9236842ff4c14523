// Command voiceprintvet is the repository's invariant multichecker: a
// standalone analysis driver enforcing the guarantees the Voiceprint
// reproduction depends on — deterministic detection output, NaN/Inf
// safety at every RSSI boundary, the zero-alloc observer hot path, no
// internal use of deprecated compatibility fields, mutex contracts, and
// goroutine hygiene. It complements `go vet ./...`, whose copylocks
// check covers copies of mutex-holding structs.
//
// Usage:
//
//	go build -o bin/voiceprintvet ./cmd/voiceprintvet
//	bin/voiceprintvet ./...                   # analyzers, non-test files
//	bin/voiceprintvet escape ./...            # noescape budget gate (-m=2)
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
	"os"

	"voiceprint/internal/analysis/deprecated"
	"voiceprint/internal/analysis/escapebudget"
	"voiceprint/internal/analysis/goroutinehygiene"
	"voiceprint/internal/analysis/lockdiscipline"
	"voiceprint/internal/analysis/nondeterminism"
	"voiceprint/internal/analysis/nonfinite"
	"voiceprint/internal/analysis/observerguard"
	"voiceprint/internal/analysis/vet"
)

func main() {
	// The escape gate reads the compiler's -m=2 output rather than
	// type-checked syntax, so it is a subcommand of its own.
	if len(os.Args) > 1 && os.Args[1] == "escape" {
		os.Exit(escapebudget.Main(os.Args[2:]))
	}
	vet.Main(
		nondeterminism.Analyzer,
		nonfinite.Analyzer,
		observerguard.Analyzer,
		deprecated.Analyzer,
		lockdiscipline.Analyzer,
		goroutinehygiene.Analyzer,
	)
}
