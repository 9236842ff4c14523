// Command voiceprint runs the Voiceprint Sybil detector offline over a
// recorded RSSI trace (the CSV format written by cmd/vanet-sim or by the
// trace package), the way the paper's field-test laptops post-processed
// their logs.
//
// Usage:
//
//	voiceprint -trace trace.csv [-k K -b B] \
//	           [-observation 20s -period 20s -range 1000] [-v]
//
// Output: per receiver and detection period, the flagged Sybil suspects
// and the identities confirmed so far under the multi-period rule; -v
// adds every pairwise distance and prints suspect-free rounds too.
//
// The CLI is a thin shell over the same streaming pipeline the
// voiceprintd daemon runs — per-receiver core.Monitor instances fed
// through service.Replay as fast as they keep up — with the daemon's
// detection posture (service.DefaultMonitorConfig), so the offline and
// online paths cannot drift apart.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/lda"
	"voiceprint/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "voiceprint: %v\n", err)
		os.Exit(1)
	}
}

// options is what the command line decides.
type options struct {
	trace   string
	period  time.Duration
	verbose bool
	monitor core.MonitorConfig
}

func parseFlags(args []string) (options, error) {
	mon := service.DefaultMonitorConfig()
	// The report prints distances, and a pruned pair carries a lower
	// bound in place of its distance. Verdicts are bit-identical either
	// way (core's TestDetectMatchesReference).
	mon.Detector.LBPrune = false

	fs := flag.NewFlagSet("voiceprint", flag.ExitOnError)
	tracePath := fs.String("trace", "", "input trace CSV (required)")
	k := fs.Float64("k", mon.Detector.Boundary.K, "boundary slope (Figure 10)")
	b := fs.Float64("b", mon.Detector.Boundary.B, "boundary intercept (Figure 10)")
	observation := fs.Duration("observation", mon.Detector.ObservationTime, "observation window")
	period := fs.Duration("period", 20*time.Second, "detection period")
	maxRange := fs.Float64("range", 1000, "assumed max transmission range (m), for Eq 9 density estimation")
	verbose := fs.Bool("v", false, "print every round and every pairwise distance")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if *tracePath == "" {
		return options{}, fmt.Errorf("missing -trace (see -h)")
	}
	mon.Detector.Boundary = lda.Boundary{K: *k, B: *b}
	mon.Detector.ObservationTime = *observation
	// Eviction tracks the window, as in the posture.
	mon.EvictAfter = 2 * *observation
	mon.MaxRangeM = *maxRange
	return options{trace: *tracePath, period: *period, verbose: *verbose, monitor: mon}, nil
}

func run(args []string, w io.Writer) error {
	opt, err := parseFlags(args)
	if err != nil {
		return err
	}
	f, err := os.Open(opt.trace)
	if err != nil {
		return err
	}
	defer f.Close()
	return report(w, f, opt)
}

// report replays the trace and writes one line per round, grouped by
// receiver.
func report(w io.Writer, trace io.Reader, opt options) error {
	var outcomes []service.RoundOutcome
	_, err := service.Replay(context.Background(), trace, service.ReplayConfig{
		Registry: service.RegistryConfig{Monitor: opt.monitor},
		Period:   opt.period,
	}, nil, func(out service.RoundOutcome) {
		// The monitor reuses its pair buffer next round, and the report
		// prints only after the last one.
		if out.Result != nil {
			out.Result.Pairs = slices.Clone(out.Result.Pairs)
		}
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
	observation := opt.monitor.Detector.ObservationTime
	for _, out := range outcomes {
		if out.Err != nil {
			return fmt.Errorf("receiver %d at %v: %w", out.Recv, out.At, out.Err)
		}
		res := out.Result
		if len(res.Suspects) == 0 && !opt.verbose {
			continue
		}
		// WindowEnd is the boundary the monitor actually evaluated; with
		// the fixed-boundary clamp it always equals the scheduled round
		// time, never the newest observation the stream had raced ahead to.
		from := max(res.WindowEnd-observation, 0)
		ev := service.EventFromOutcome(out)
		fmt.Fprintf(w, "receiver %d t=[%v,%v) den=%.1f considered=%d suspects=%v confirmed=%v\n",
			out.Recv, from, res.WindowEnd, ev.Density, ev.Considered, ev.Suspects, ev.Confirmed)
		if opt.verbose {
			for _, p := range res.Pairs {
				fmt.Fprintf(w, "  (%d,%d) raw=%.5f norm=%.4f flagged=%v\n",
					p.A, p.B, p.Raw, p.Normalized, p.Flagged)
			}
		}
	}
	return nil
}
