// Command voiceprintvet is the repository's invariant multichecker: a
// `go vet -vettool` compatible analysis driver enforcing the guarantees
// the Voiceprint reproduction depends on — deterministic detection
// output, NaN/Inf safety at every RSSI boundary, the zero-alloc
// observer hot path, a drift-proof telemetry surface, and no internal
// use of deprecated compatibility fields.
//
// Usage:
//
//	go build -o bin/voiceprintvet ./cmd/voiceprintvet
//	go vet -vettool=bin/voiceprintvet ./...   # full modular analysis
//	bin/voiceprintvet ./...                   # standalone, non-test files
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
	"voiceprint/internal/analysis/metricnames"
	"voiceprint/internal/analysis/nondeterminism"
	"voiceprint/internal/analysis/nonfinite"
	"voiceprint/internal/analysis/observerguard"
	"voiceprint/internal/analysis/vet"
)

func main() {
	// The escape gate cannot run under the unitchecker protocol (go vet
	// never forwards -m diagnostics to vettools), so it dispatches
	// before the protocol handshake.
	if len(os.Args) > 1 && os.Args[1] == "escape" {
		os.Exit(escapebudget.Main(os.Args[2:]))
	}
	vet.Main(
		nondeterminism.Analyzer,
		nonfinite.Analyzer,
		observerguard.Analyzer,
		metricnames.Analyzer,
		deprecated.Analyzer,
		lockdiscipline.Analyzer,
		goroutinehygiene.Analyzer,
	)
}
