package vanet

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func TestDefaultCampaignEveryKindBuilds(t *testing.T) {
	for _, kind := range CampaignKinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			cfg, err := DefaultCampaign(kind)
			if err != nil {
				t.Fatalf("DefaultCampaign: %v", err)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("default config invalid: %v", err)
			}
			camp, err := BuildCampaign(cfg, 7)
			if err != nil {
				t.Fatalf("BuildCampaign: %v", err)
			}
			eng, err := NewEngine(camp.Engine, camp.Nodes)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			truth := eng.Truth()
			if len(truth.Sybil) == 0 {
				t.Fatal("campaign has no Sybil identities")
			}
			attackers := 0
			for _, n := range camp.Nodes {
				if n.Malicious {
					attackers++
				}
			}
			if attackers != cfg.Attackers {
				t.Fatalf("got %d attackers, want %d", attackers, cfg.Attackers)
			}
			if len(camp.Engine.Observers) == 0 {
				t.Fatal("no observers sampled")
			}
		})
	}
}

func TestDefaultCampaignUnknownKind(t *testing.T) {
	if _, err := DefaultCampaign("no-such-kind"); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("got %v, want ErrUnknownKind", err)
	}
}

func TestCampaignValidateTypedErrors(t *testing.T) {
	base := func() CampaignConfig {
		cfg, err := DefaultCampaign(KindSingleAttacker)
		if err != nil {
			t.Fatalf("DefaultCampaign: %v", err)
		}
		return cfg
	}
	cases := []struct {
		name   string
		mutate func(*CampaignConfig)
		want   error
	}{
		{"unknown kind", func(c *CampaignConfig) { c.Kind = "martian" }, ErrUnknownKind},
		{"nan power", func(c *CampaignConfig) { c.TxPowerMinDBm = math.NaN() }, ErrNonFinite},
		{"inf duration", func(c *CampaignConfig) { c.DurationS = math.Inf(1) }, ErrNonFinite},
		{"nan hop level", func(c *CampaignConfig) {
			c.Kind = KindPowerHop
			c.HopLevelsDB = []float64{0, math.NaN()}
		}, ErrNonFinite},
		{"negative density", func(c *CampaignConfig) { c.DensityPerKm = -10 }, ErrBadDensity},
		{"zero density", func(c *CampaignConfig) { c.DensityPerKm = 0 }, ErrBadDensity},
		{"zero attackers", func(c *CampaignConfig) { c.Attackers = 0 }, ErrEmptyFleet},
		{"zero sybils", func(c *CampaignConfig) { c.SybilPerAttacker = 0 }, ErrEmptyFleet},
		{"one-radio fleet", func(c *CampaignConfig) {
			c.Kind = KindColludingFleet
			c.Attackers = 1
			c.HandoffEveryS = 10
		}, ErrEmptyFleet},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			if err := cfg.Validate(); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestCampaignValidateUntypedRejections(t *testing.T) {
	cases := []func(*CampaignConfig){
		func(c *CampaignConfig) { c.DurationS = 0 },
		func(c *CampaignConfig) { c.HighwayLengthM = -1 },
		func(c *CampaignConfig) { c.Environment = "underwater" },
		func(c *CampaignConfig) { c.Observers = -1 },
		func(c *CampaignConfig) { c.TxPowerMinDBm, c.TxPowerMaxDBm = 23, 17 },
		func(c *CampaignConfig) { c.MaxRangeM = -5 },
		func(c *CampaignConfig) { c.Kind = KindColludingFleet; c.Attackers = 2 }, // no handoff period
		func(c *CampaignConfig) { c.Kind = KindPowerHop },                        // no hop levels
		func(c *CampaignConfig) { c.Kind = KindSybilChurn },                      // no lifetime
	}
	for i, mutate := range cases {
		cfg, err := DefaultCampaign(KindSingleAttacker)
		if err != nil {
			t.Fatalf("DefaultCampaign: %v", err)
		}
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

func TestParseCampaignConfig(t *testing.T) {
	cfg, err := DefaultCampaign(KindColludingFleet)
	if err != nil {
		t.Fatalf("DefaultCampaign: %v", err)
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := ParseCampaignConfig(data)
	if err != nil {
		t.Fatalf("ParseCampaignConfig: %v", err)
	}
	if got.Kind != KindColludingFleet || got.HandoffEveryS != cfg.HandoffEveryS {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	for _, bad := range []string{
		"",                           // empty
		"{",                          // truncated
		`{"kind": 3}`,                // wrong type
		`{"wat": true}`,              // unknown field
		`{"kind":"x"}{}`,             // trailing document
		`{"kind":"single-attacker"}`, // fails Validate (zero density)
	} {
		if _, err := ParseCampaignConfig([]byte(bad)); err == nil {
			t.Fatalf("ParseCampaignConfig(%q) accepted", bad)
		}
	}
}

func TestColludingFleetHandoffWindows(t *testing.T) {
	cfg, err := DefaultCampaign(KindColludingFleet)
	if err != nil {
		t.Fatalf("DefaultCampaign: %v", err)
	}
	camp, err := BuildCampaign(cfg, 11)
	if err != nil {
		t.Fatalf("BuildCampaign: %v", err)
	}
	// Collect every copy of every Sybil identity with its holder index.
	type copyOn struct {
		node int
		id   Identity
	}
	copies := make(map[NodeID][]copyOn)
	for ni, n := range camp.Nodes {
		for _, id := range n.Identities {
			if id.Sybil {
				copies[NodeID(id.ID)] = append(copies[NodeID(id.ID)], copyOn{ni, id})
			}
		}
	}
	if len(copies) != cfg.SybilPerAttacker {
		t.Fatalf("pool has %d identities, want %d", len(copies), cfg.SybilPerAttacker)
	}
	slot := time.Duration(cfg.HandoffEveryS * float64(time.Second))
	nSlots := int((camp.Duration + slot - 1) / slot)
	for id, cs := range copies {
		if len(cs) != nSlots {
			t.Fatalf("identity %d has %d slot copies, want %d", id, len(cs), nSlots)
		}
		holders := make(map[int]bool)
		for i, a := range cs {
			if !a.id.Sybil || a.id.ActiveUntil == 0 {
				t.Fatalf("identity %d copy %d: unbounded window %+v", id, i, a.id)
			}
			holders[a.node] = true
			for _, b := range cs[i+1:] {
				if a.id.overlaps(b.id) {
					t.Fatalf("identity %d: overlapping copies %+v and %+v", id, a.id, b.id)
				}
			}
		}
		if len(holders) < 2 {
			t.Errorf("identity %d never handed off (holders %v)", id, holders)
		}
		// Claim and power stay consistent across handoffs: a colluder
		// impersonating one identity must not change its story.
		for _, c := range cs[1:] {
			if c.id.ClaimedOffset != cs[0].id.ClaimedOffset || c.id.TxPowerDBm != cs[0].id.TxPowerDBm {
				t.Fatalf("identity %d changes claim/power across handoff", id)
			}
		}
	}
	// The engine must accept the disjoint-window duplicates.
	if _, err := NewEngine(camp.Engine, camp.Nodes); err != nil {
		t.Fatalf("NewEngine rejects handoff fleet: %v", err)
	}
}

func TestEngineRejectsOverlappingDuplicates(t *testing.T) {
	cfg, err := DefaultCampaign(KindColludingFleet)
	if err != nil {
		t.Fatalf("DefaultCampaign: %v", err)
	}
	camp, err := BuildCampaign(cfg, 11)
	if err != nil {
		t.Fatalf("BuildCampaign: %v", err)
	}
	// Force one copy's window to cover everything: now two radios
	// broadcast the same identity concurrently and NewEngine must refuse.
	for _, n := range camp.Nodes {
		if n.Malicious {
			for i := range n.Identities {
				if n.Identities[i].Sybil {
					n.Identities[i].ActiveFrom = 0
					n.Identities[i].ActiveUntil = 0
					if _, err := NewEngine(camp.Engine, camp.Nodes); err == nil {
						t.Fatal("NewEngine accepted overlapping duplicate identity")
					}
					return
				}
			}
		}
	}
	t.Fatal("no Sybil copy found")
}

func TestChurnWindowsStaggered(t *testing.T) {
	cfg, err := DefaultCampaign(KindSybilChurn)
	if err != nil {
		t.Fatalf("DefaultCampaign: %v", err)
	}
	camp, err := BuildCampaign(cfg, 3)
	if err != nil {
		t.Fatalf("BuildCampaign: %v", err)
	}
	stagger := time.Duration(cfg.ChurnStaggerS * float64(time.Second))
	lifetime := time.Duration(cfg.ChurnLifetimeS * float64(time.Second))
	var churned int
	for _, n := range camp.Nodes {
		if !n.Malicious {
			continue
		}
		sybils := n.Identities[1:]
		if len(sybils) != cfg.SybilPerAttacker {
			t.Fatalf("attacker has %d sybils, want %d", len(sybils), cfg.SybilPerAttacker)
		}
		for i, id := range sybils {
			wantFrom := time.Duration(i) * stagger
			if id.ActiveFrom != wantFrom {
				t.Fatalf("sybil %d ActiveFrom %v, want %v", i, id.ActiveFrom, wantFrom)
			}
			wantUntil := wantFrom + lifetime
			if wantUntil > camp.Duration {
				wantUntil = camp.Duration
			}
			if id.ActiveUntil != wantUntil {
				t.Fatalf("sybil %d ActiveUntil %v, want %v", i, id.ActiveUntil, wantUntil)
			}
			if id.ActiveFrom > 0 || id.ActiveUntil < camp.Duration {
				churned++
			}
		}
	}
	if churned == 0 {
		t.Fatal("no identity actually churns (all windows cover the campaign)")
	}
}

func TestPowerHopArming(t *testing.T) {
	cfg, err := DefaultCampaign(KindPowerHop)
	if err != nil {
		t.Fatalf("DefaultCampaign: %v", err)
	}
	camp, err := BuildCampaign(cfg, 5)
	if err != nil {
		t.Fatalf("BuildCampaign: %v", err)
	}
	seen := make(map[*PowerControl]bool)
	for _, n := range camp.Nodes {
		for _, id := range n.Identities {
			if !id.Sybil {
				if id.Power != nil {
					t.Fatal("physical identity armed with power control")
				}
				continue
			}
			if id.Power == nil {
				t.Fatalf("sybil %d not armed with power control", id.ID)
			}
			if seen[id.Power] {
				t.Fatal("two identities share one PowerControl (hop state would couple)")
			}
			seen[id.Power] = true
			if len(id.Power.HopLevelsDB) != len(cfg.HopLevelsDB) {
				t.Fatalf("hop levels %v, want %v", id.Power.HopLevelsDB, cfg.HopLevelsDB)
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("no armed sybils")
	}
}

// campaignFingerprint projects the build output onto a comparable string:
// node roles, start positions, and full identity lists.
func campaignFingerprint(t *testing.T, camp *Campaign) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "observers=%v dur=%v seed=%d\n",
		camp.Engine.Observers, camp.Duration, camp.Engine.Seed)
	for i, n := range camp.Nodes {
		pos := n.Mover.Position()
		fmt.Fprintf(&b, "node %d mal=%t pos=(%.6f,%.6f)\n", i, n.Malicious, pos.X, pos.Y)
		for _, id := range n.Identities {
			fmt.Fprintf(&b, "  id=%d tx=%.6f sybil=%t off=(%.6f,%.6f) win=[%v,%v)",
				id.ID, id.TxPowerDBm, id.Sybil, id.ClaimedOffset.X, id.ClaimedOffset.Y,
				id.ActiveFrom, id.ActiveUntil)
			if id.Power != nil {
				fmt.Fprintf(&b, " hop=%v every=%d", id.Power.HopLevelsDB, id.Power.HopEveryBeacons)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

func TestBuildCampaignDeterministic(t *testing.T) {
	for _, kind := range CampaignKinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			if kind == KindDenseHighway && testing.Short() {
				t.Skip("dense build in -short")
			}
			cfg, err := DefaultCampaign(kind)
			if err != nil {
				t.Fatalf("DefaultCampaign: %v", err)
			}
			a, err := BuildCampaign(cfg, 42)
			if err != nil {
				t.Fatalf("BuildCampaign: %v", err)
			}
			b, err := BuildCampaign(cfg, 42)
			if err != nil {
				t.Fatalf("BuildCampaign: %v", err)
			}
			fa, fb := campaignFingerprint(t, a), campaignFingerprint(t, b)
			if fa != fb {
				t.Fatal("same seed produced different campaigns")
			}
			c, err := BuildCampaign(cfg, 43)
			if err != nil {
				t.Fatalf("BuildCampaign: %v", err)
			}
			if campaignFingerprint(t, c) == fa {
				t.Fatal("different seeds produced identical campaigns")
			}
		})
	}
}
