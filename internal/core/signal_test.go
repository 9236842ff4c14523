package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"voiceprint/internal/vanet"
)

// stubSignal is a minimal Signal for option-validation and fusion-path
// tests.
type stubSignal struct {
	name    string
	flag    vanet.NodeID
	analyze func(*SignalInput) (*SignalResult, error)
}

func (s stubSignal) Name() string { return s.name }

func (s stubSignal) Analyze(in *SignalInput) (*SignalResult, error) {
	if s.analyze != nil {
		return s.analyze(in)
	}
	return &SignalResult{
		Suspects: map[vanet.NodeID]bool{s.flag: true},
		Scores:   map[vanet.NodeID]float64{s.flag: 1},
		Tested:   []vanet.NodeID{s.flag},
	}, nil
}

func TestFusionOptionsValidate(t *testing.T) {
	ok := stubSignal{name: "stub"}
	cases := []struct {
		name string
		opts FusionOptions
		want string // substring of the error; "" means valid
	}{
		{"zero value", FusionOptions{}, ""},
		{"enabled no extras", FusionOptions{Enabled: true}, ""},
		{"enabled with signal", FusionOptions{Enabled: true, Signals: []Signal{ok}}, ""},
		{"disabled with signals", FusionOptions{Signals: []Signal{ok}}, "Enabled is false"},
		{"nil signal", FusionOptions{Enabled: true, Signals: []Signal{nil}}, "is nil"},
		{"empty name", FusionOptions{Enabled: true, Signals: []Signal{stubSignal{}}}, "empty name"},
		{"reserved name", FusionOptions{Enabled: true, Signals: []Signal{stubSignal{name: SignalName}}}, "duplicate"},
		{"duplicate name", FusionOptions{Enabled: true, Signals: []Signal{ok, ok}}, "duplicate"},
	}
	for _, tc := range cases {
		err := tc.opts.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}

	// A bad fusion configuration must fail at monitor construction, not
	// at round time.
	cfg := DefaultConfig(testBoundary())
	if _, err := NewMonitor(MonitorConfig{Detector: cfg,
		Fusion: FusionOptions{Enabled: true, Signals: []Signal{nil}}}); err == nil {
		t.Error("NewMonitor accepted a nil fusion signal")
	}
}

// TestMonitorFusionAttribution: a fusion round must union the extra
// signal's flags into Suspects, extend Considered with flagged
// identities (the grading denominator requirement), and attribute every
// flag in Result.Signals — while a fusion-off monitor leaves Signals nil.
func TestMonitorFusionAttribution(t *testing.T) {
	cfg := DefaultConfig(testBoundary())
	cfg.MinMedianRSSIDBm = 0
	extra := stubSignal{name: "stub", flag: 55}
	m, err := NewMonitor(MonitorConfig{
		Detector:         cfg,
		ReorderTolerance: time.Hour,
		Fusion:           FusionOptions{Enabled: true, Signals: []Signal{extra}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	series := sybilCluster(rng, 4)
	for id, s := range series {
		for i := 0; i < s.Len(); i++ {
			smp := s.At(i)
			if err := m.ObserveWithClaim(id, smp.T, smp.RSSI, 10, 5); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := m.Detect()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Suspects[55] {
		t.Fatalf("stub-flagged identity missing from fused suspects: %v", res.Suspects)
	}
	found := false
	for _, id := range res.Considered {
		if id == 55 {
			found = true
		}
	}
	if !found {
		t.Errorf("flagged identity 55 not accounted in Considered %v", res.Considered)
	}
	attr := res.Signals[55]
	if attr == nil || attr["stub"] != 1 {
		t.Errorf("attribution for 55 = %v, want stub score 1", attr)
	}
	// Voiceprint attribution (VoiceprintScores) covers flagged
	// identities only, each with a finite normalized distance.
	vp := 0
	for id, attr := range res.Signals {
		s, ok := attr[SignalName]
		if !ok {
			continue
		}
		vp++
		if !res.Suspects[id] || math.IsNaN(s) || math.IsInf(s, 0) {
			t.Errorf("voiceprint attribution %v for %d (suspect %v)", s, id, res.Suspects[id])
		}
	}
	if vp == 0 {
		t.Errorf("no voiceprint attribution in %v", res.Signals)
	}

	// Fusion off: same stream, no Signals map, no stub flag.
	off, err := NewMonitor(MonitorConfig{Detector: cfg, ReorderTolerance: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	rng = rand.New(rand.NewSource(9))
	series = sybilCluster(rng, 4)
	for id, s := range series {
		for i := 0; i < s.Len(); i++ {
			smp := s.At(i)
			if err := off.Observe(id, smp.T, smp.RSSI); err != nil {
				t.Fatal(err)
			}
		}
	}
	plain, err := off.Detect()
	if err != nil {
		t.Fatal(err)
	}
	if plain.Signals != nil {
		t.Errorf("fusion-off round carries Signals: %v", plain.Signals)
	}
	if plain.Suspects[55] {
		t.Error("fusion-off round flagged the stub identity")
	}
}
