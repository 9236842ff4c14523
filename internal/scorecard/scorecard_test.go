package scorecard

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/fusion"
	"voiceprint/internal/lda"
	"voiceprint/internal/service"
	"voiceprint/internal/vanet"
)

func TestSpecsCoverEveryCampaignKind(t *testing.T) {
	specs := Specs()
	kinds := vanet.CampaignKinds()
	if len(specs) != len(kinds) {
		t.Fatalf("Specs() has %d entries, want one per kind (%d)", len(specs), len(kinds))
	}
	seen := make(map[string]bool, len(specs))
	for _, s := range specs {
		if s.Period <= 0 {
			t.Errorf("%s: non-positive period %v", s.Kind, s.Period)
		}
		seen[s.Kind] = true
	}
	for _, k := range kinds {
		if !seen[k] {
			t.Errorf("kind %s missing from Specs()", k)
		}
	}
}

// TestFusionConfigUnchanged pins the configuration the benchmark module
// runs to the literal the scorecard graded before the posture moved into
// service.DefaultMonitorConfig. That literal left eviction and reorder
// tolerance zero; they are filled in here with the values the monitor
// (twice the window) and the registry resolved zero to, which the posture
// now states outright.
func TestFusionConfigUnchanged(t *testing.T) {
	for _, maxRangeM := range []float64{0, 300, 1000} {
		det := core.DefaultConfig(lda.Boundary{K: 0.000022, B: 0.0067})
		det.LBPrune = true
		want := service.Config{
			Registry: service.RegistryConfig{Monitor: core.MonitorConfig{
				Detector:         det,
				ConfirmWindow:    3,
				ConfirmNeed:      2,
				MaxRangeM:        maxRangeM,
				EvictAfter:       2 * det.ObservationTime,
				ReorderTolerance: 500 * time.Millisecond,
				Fusion: core.FusionOptions{
					Enabled: true,
					Signals: []core.Signal{fusion.NewPositionSignal()},
				},
			}},
			IngestBuffer: 1 << 15,
			Coordinator:  fusion.NewCoordinator(),
		}
		got, err := FusionConfig(maxRangeM)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("FusionConfig(%v) =\n%+v\nwant\n%+v", maxRangeM, got, want)
		}
	}
}

func TestCardEncodeDecodeRoundTrip(t *testing.T) {
	in := Card{
		Seed:      CampaignSeed,
		BoundaryK: 0.000022,
		BoundaryB: 0.0067,
		Rows: []Row{
			{Kind: "single-attacker", Seed: CampaignSeed, PeriodS: 20, Records: 10,
				Rounds: 4, Receivers: 8, SybilIdentities: 4, DR: 0.9, FPR: 0.1,
				MeanTTCSeconds: 42.5, ConfirmedIllegitimate: 3},
			{Kind: "colluding-fleet", Seed: CampaignSeed, PeriodS: 20,
				DR: 0.5, FPR: 0.12, MeanTTCSeconds: -1},
		},
	}
	data, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != len(in.Rows) || out.Seed != in.Seed ||
		out.Rows[0] != in.Rows[0] || out.Rows[1] != in.Rows[1] {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
	if _, err := Decode([]byte("{not json")); err == nil {
		t.Fatal("Decode accepted malformed JSON")
	}
}

func TestCompareToleranceUnits(t *testing.T) {
	base := Card{Rows: []Row{{Kind: "single-attacker", DR: 0.90, FPR: 0.10}}}
	cases := []struct {
		name    string
		dr, fpr float64
		wantReg bool
	}{
		{"identical", 0.90, 0.10, false},
		{"dr drop within tolerance", 0.90 - DRDropTolerance, 0.10, false},
		{"dr drop beyond tolerance", 0.90 - DRDropTolerance - 0.001, 0.10, true},
		{"fpr rise within tolerance", 0.90, 0.10 + FPRRiseTolerance, false},
		{"fpr rise beyond tolerance", 0.90, 0.10 + FPRRiseTolerance + 0.001, true},
		{"improvement never fails", 1.0, 0.0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := Card{Rows: []Row{{Kind: "single-attacker", DR: tc.dr, FPR: tc.fpr}}}
			regs := Compare(cur, base)
			if got := len(regs) > 0; got != tc.wantReg {
				t.Fatalf("regressions=%v, want regression=%t", regs, tc.wantReg)
			}
			err := Gate(cur, base)
			if tc.wantReg {
				if !errors.Is(err, ErrRegression) {
					t.Fatalf("Gate err=%v, want ErrRegression", err)
				}
			} else if err != nil {
				t.Fatalf("Gate unexpectedly failed: %v", err)
			}
		})
	}
}

func TestCompareMissingScenarioRegresses(t *testing.T) {
	base := Card{Rows: []Row{
		{Kind: "single-attacker", DR: 0.9, FPR: 0.1},
		{Kind: "colluding-fleet", DR: 0.5, FPR: 0.1},
	}}
	cur := Card{Rows: []Row{{Kind: "single-attacker", DR: 0.9, FPR: 0.1}}}
	regs := Compare(cur, base)
	if len(regs) != 1 || !strings.Contains(regs[0], "colluding-fleet") {
		t.Fatalf("regressions=%v, want one about the missing colluding-fleet row", regs)
	}
	// A scenario present now but absent from the baseline is an addition,
	// not a regression.
	if regs := Compare(base, cur); len(regs) != 0 {
		t.Fatalf("added scenario reported as regression: %v", regs)
	}
}

func TestTableRendersEveryRow(t *testing.T) {
	card := Card{Rows: []Row{
		{Kind: "single-attacker", DR: 0.909, FPR: 0.177, MeanTTCSeconds: 91.9},
		{Kind: "colluding-fleet", DR: 0.546, FPR: 0.131, MeanTTCSeconds: -1},
	}}
	table := card.Table()
	for _, want := range []string{"single-attacker", "colluding-fleet", "0.909", "0.546", "—"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

// TestColludingFleetDegradesDetection is the campaign's headline claim,
// graded through the live daemon: a colluding fleet handing one Sybil
// identity pool across radios mixes channel realizations inside each
// identity's RSSI series, breaking the same-channel similarity plain
// Voiceprint keys on (Observation 3), so its detection rate must come in
// well under the single-attacker scenario's on the same seed.
func TestColludingFleetDegradesDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("replays two full campaigns through a live daemon")
	}
	ctx := context.Background()
	single, err := Run(ctx, Spec{Kind: vanet.KindSingleAttacker, Period: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	colluding, err := Run(ctx, Spec{Kind: vanet.KindColludingFleet, Period: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if single.DR < 0.8 {
		t.Errorf("single-attacker DR = %.3f, want >= 0.8 (sanity vs the fig11a regime)", single.DR)
	}
	if single.ConfirmedIllegitimate == 0 || single.MeanTTCSeconds < 0 {
		t.Errorf("single-attacker never confirmed a Sybil (confirmed=%d ttc=%.1f)",
			single.ConfirmedIllegitimate, single.MeanTTCSeconds)
	}
	if colluding.DR > single.DR-0.1 {
		t.Errorf("colluding fleet DR %.3f not demonstrably below single-attacker %.3f",
			colluding.DR, single.DR)
	}
	if colluding.RoundErrors != 0 || single.RoundErrors != 0 {
		t.Errorf("round errors: single=%d colluding=%d", single.RoundErrors, colluding.RoundErrors)
	}
}
