package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"voiceprint/internal/core"
	"voiceprint/internal/lda"
	"voiceprint/internal/scorecard"
)

func parse(t *testing.T, args ...string) (daemonConfig, error) {
	t.Helper()
	fs := flag.NewFlagSet("voiceprintd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return configFromFlags(fs, args)
}

// TestDefaultsAreGradedPosture: a daemon started with no flags runs the
// monitor configuration the scorecard grades. Only Equation 9's range
// (per scenario there, -range here) and the ingest buffer may differ,
// and the buffer is not part of the monitor.
func TestDefaultsAreGradedPosture(t *testing.T) {
	dc, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	graded, err := scorecard.FusionConfig(1000)
	if err != nil {
		t.Fatal(err)
	}
	want := graded.Registry.Monitor
	want.Fusion = core.FusionOptions{}
	if got := dc.svc.Registry.Monitor; !reflect.DeepEqual(got, want) {
		t.Errorf("default monitor config =\n%+v\nscorecard grades\n%+v", got, want)
	}
}

func TestBoundaryFlagsReachDetector(t *testing.T) {
	dc, err := parse(t, "-k", "0.00003", "-b", "0.008")
	if err != nil {
		t.Fatal(err)
	}
	want := lda.Boundary{K: 0.00003, B: 0.008}
	if got := dc.svc.Registry.Monitor.Detector.Boundary; got != want {
		t.Errorf("boundary = %+v, want %+v", got, want)
	}
}

// TestRemovedFlagsRejected: the daemon is only a server, and its
// confirmation rule is the posture's; the trace replay and confirmation
// flags are gone rather than ignored.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-replay", "trace.csv"},
		{"-speed", "10"},
		{"-confirm-window", "3"},
		{"-confirm-need", "2"},
	} {
		_, err := parse(t, args...)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: err = %v, want unknown flag", args, err)
		}
	}
}
