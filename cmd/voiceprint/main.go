// Command voiceprint runs the Voiceprint Sybil detector offline over a
// recorded RSSI trace (the CSV format written by cmd/vanet-sim or by the
// trace package), the way the paper's field-test laptops post-processed
// their logs.
//
// Usage:
//
//	voiceprint -trace trace.csv [-k 0.000025 -b 0.0067] \
//	           [-observation 20s -period 20s -range 1000]
//
// Output: per receiver and detection period, the flagged Sybil suspects
// and the pairwise distances that convicted them.
//
// The CLI is a thin shell over the same streaming pipeline the
// voiceprintd daemon runs — per-receiver core.Monitor instances fed
// through service.Replay at infinite speedup — so the offline and online
// paths cannot drift apart.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/lda"
	"voiceprint/internal/service"
	"voiceprint/internal/vanet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "voiceprint: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	tracePath := flag.String("trace", "", "input trace CSV (required)")
	k := flag.Float64("k", 0.000025, "boundary slope (Figure 10)")
	b := flag.Float64("b", 0.0067, "boundary intercept (Figure 10)")
	observation := flag.Duration("observation", 20*time.Second, "observation window")
	period := flag.Duration("period", 20*time.Second, "detection period")
	maxRange := flag.Float64("range", 1000, "assumed max transmission range (m), for Eq 9 density estimation")
	verbose := flag.Bool("v", false, "print every pairwise distance")
	flag.Parse()
	if *tracePath == "" {
		return fmt.Errorf("missing -trace (see -h)")
	}

	f, err := os.Open(*tracePath)
	if err != nil {
		return err
	}
	defer f.Close()

	cfg := core.DefaultConfig(lda.Boundary{K: *k, B: *b})
	cfg.ObservationTime = *observation

	var outcomes []service.RoundOutcome
	_, err = service.Replay(context.Background(), f, service.ReplayConfig{
		Registry: service.RegistryConfig{
			Monitor: core.MonitorConfig{
				Detector:  cfg,
				MaxRangeM: *maxRange,
			},
		},
		Period: *period,
	}, nil, func(out service.RoundOutcome) {
		outcomes = append(outcomes, out)
	})
	if err != nil {
		return err
	}

	// Group by receiver, then time, preserving the historical per-receiver
	// report layout.
	sort.SliceStable(outcomes, func(i, j int) bool {
		if outcomes[i].Recv != outcomes[j].Recv {
			return outcomes[i].Recv < outcomes[j].Recv
		}
		return outcomes[i].At < outcomes[j].At
	})
	for _, out := range outcomes {
		if out.Err != nil {
			return fmt.Errorf("receiver %d at %v: %w", out.Recv, out.At, out.Err)
		}
		res := out.Result
		if len(res.Suspects) == 0 && !*verbose {
			continue
		}
		// WindowEnd is the boundary the monitor actually evaluated; with
		// the fixed-boundary clamp it always equals the scheduled round
		// time, never the newest observation the stream had raced ahead to.
		from := res.WindowEnd - *observation
		if from < 0 {
			from = 0
		}
		suspects := make([]vanet.NodeID, 0, len(res.Suspects))
		for id := range res.Suspects {
			suspects = append(suspects, id)
		}
		sort.Slice(suspects, func(i, j int) bool { return suspects[i] < suspects[j] })
		fmt.Printf("receiver %d t=[%v,%v) den=%.1f considered=%d suspects=%v\n",
			out.Recv, from, res.WindowEnd, res.Density, len(res.Considered), suspects)
		if *verbose {
			for _, p := range res.Pairs {
				fmt.Printf("  (%d,%d) raw=%.5f norm=%.4f flagged=%v\n",
					p.A, p.B, p.Raw, p.Normalized, p.Flagged)
			}
		}
	}
	return nil
}
