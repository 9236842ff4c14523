package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"voiceprint/internal/experiments"
	"voiceprint/internal/service"
	"voiceprint/internal/trace"
	"voiceprint/internal/vanet"
)

// sybilTrace simulates the highway `vanet-sim -density 30 -duration 60s
// -seed 3 -observers 3` writes: three receivers, each within range of a
// Sybil attacker's identities for three 20 s rounds.
func sybilTrace(t *testing.T) ([]byte, vanet.Truth) {
	t.Helper()
	run, err := experiments.RunHighway(experiments.SimParams{
		DensityPerKm: 30,
		Seed:         3,
		Duration:     60 * time.Second,
		MaxObservers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var records []trace.Record
	for _, log := range run.Engine.Logs() {
		records = append(records, trace.FromLog(log)...)
	}
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, records); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), run.Truth
}

func TestConfigIsPostureUnpruned(t *testing.T) {
	opt, err := parseFlags([]string{"-trace", "t.csv"})
	if err != nil {
		t.Fatal(err)
	}
	want := service.DefaultMonitorConfig()
	want.Detector.LBPrune = false
	want.MaxRangeM = 1000
	if !reflect.DeepEqual(opt.monitor, want) {
		t.Errorf("monitor config =\n%+v\nwant the posture without pruning\n%+v", opt.monitor, want)
	}
}

// round is one parsed round line of the report and its pair lines.
type round struct {
	recv, end           string
	considered          int
	suspects, confirmed []string
	pairs               map[string]string // "(a,b)" -> the rest of the line
}

var roundLine = regexp.MustCompile(`^receiver (\d+) t=\[\S+,(\S+)\) den=\S+ considered=(\d+) suspects=\[([^]]*)\] confirmed=\[([^]]*)\]$`)

func parseReport(t *testing.T, out string) []*round {
	t.Helper()
	var rounds []*round
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if pair, rest, ok := strings.Cut(strings.TrimPrefix(line, "  "), " "); ok && strings.HasPrefix(line, "  (") {
			rounds[len(rounds)-1].pairs[pair] = rest
			continue
		}
		m := roundLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparsed report line %q", line)
		}
		n, _ := strconv.Atoi(m[3])
		rounds = append(rounds, &round{recv: m[1], end: m[2], considered: n,
			suspects: strings.Fields(m[4]), confirmed: strings.Fields(m[5]),
			pairs: map[string]string{}})
	}
	return rounds
}

// TestConfirmationNeedsTwoFlags: under the posture's 2-of-3 rule a Sybil
// identity is never confirmed in the round that first flags it, and the
// trace's attacker does get confirmed.
func TestConfirmationNeedsTwoFlags(t *testing.T) {
	csv, truth := sybilTrace(t)
	opt, err := parseFlags([]string{"-trace", "t.csv", "-v"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := report(&out, bytes.NewReader(csv), opt); err != nil {
		t.Fatal(err)
	}
	flags := map[string]int{} // receiver/id -> flagged rounds so far
	confirmedSybils := 0
	for _, r := range parseReport(t, out.String()) {
		for _, id := range r.suspects {
			flags[r.recv+"/"+id]++
		}
		for _, id := range r.confirmed {
			n, _ := strconv.Atoi(id)
			if !truth.Sybil[vanet.NodeID(n)] {
				continue
			}
			if f := flags[r.recv+"/"+id]; f < 2 {
				t.Errorf("receiver %s t=%s: Sybil %s confirmed after %d flagged round(s)", r.recv, r.end, id, f)
			}
			confirmedSybils++
		}
	}
	if confirmedSybils == 0 {
		t.Fatalf("no Sybil identity confirmed:\n%s", out.String())
	}
}

// TestVerbosePrintsExactDistances: -v prints one line per pair of
// considered identities, each with its exact distance. A pruned run of
// the same trace is the reference: its unpruned pairs must print the
// same bits, and each pair it pruned must print a distance at or above
// the pruned run's lower bound, and not just that bound.
func TestVerbosePrintsExactDistances(t *testing.T) {
	csv, _ := sybilTrace(t)
	opt, err := parseFlags([]string{"-trace", "t.csv", "-v"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := report(&out, bytes.NewReader(csv), opt); err != nil {
		t.Fatal(err)
	}
	printed := map[string]*round{}
	for _, r := range parseReport(t, out.String()) {
		if want := r.considered * (r.considered - 1) / 2; len(r.pairs) != want {
			t.Errorf("receiver %s t=%s: %d pair lines, want %d", r.recv, r.end, len(r.pairs), want)
		}
		printed[r.recv+"@"+r.end] = r
	}

	pruned := opt.monitor
	pruned.Detector.LBPrune = true
	var exact, bounded, beyond int
	_, err = service.Replay(context.Background(), bytes.NewReader(csv), service.ReplayConfig{
		Registry: service.RegistryConfig{Monitor: pruned},
		Period:   opt.period,
	}, nil, func(o service.RoundOutcome) {
		r := printed[fmt.Sprintf("%d@%v", o.Recv, o.Result.WindowEnd)]
		if r == nil {
			t.Fatalf("receiver %d t=%v: round missing from the report", o.Recv, o.Result.WindowEnd)
		}
		for _, p := range o.Result.Pairs {
			key := fmt.Sprintf("(%d,%d)", p.A, p.B)
			got := r.pairs[key]
			if !p.Pruned {
				exact++
				if want := fmt.Sprintf("raw=%.5f norm=%.4f flagged=%v", p.Raw, p.Normalized, p.Flagged); got != want {
					t.Errorf("receiver %d t=%v %s: printed %q, want %q", o.Recv, o.Result.WindowEnd, key, got, want)
				}
				continue
			}
			bounded++
			var raw float64
			if _, err := fmt.Sscanf(got, "raw=%g", &raw); err != nil || raw < p.Raw-5e-6 {
				t.Errorf("receiver %d t=%v %s: printed %q below the pruned bound %.5f", o.Recv, o.Result.WindowEnd, key, got, p.Raw)
			}
			if !strings.HasPrefix(got, fmt.Sprintf("raw=%.5f ", p.Raw)) {
				beyond++
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if exact == 0 || bounded == 0 {
		t.Fatalf("reference run had %d exact and %d pruned pairs; the trace checks nothing", exact, bounded)
	}
	if beyond == 0 {
		t.Errorf("all %d pruned pairs printed their lower bound, not their distance", bounded)
	}
}
