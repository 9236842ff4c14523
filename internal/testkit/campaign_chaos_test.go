package testkit

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/lda"
	"voiceprint/internal/service"
	"voiceprint/internal/trace"
	"voiceprint/internal/vanet"
)

// The campaign chaos matrix replays the adversarial colluding-fleet
// campaign (two radios handing one Sybil identity pool back and forth —
// the hardest scenario the scorecard grades) through the live daemon
// and pins verdict equality across every axis that must not move a
// verdict: lower-bound pruning on vs off, reorder-only transport chaos,
// and crash-recovery vs graceful restart.

var (
	campaignOnce sync.Once
	campaignRecs []trace.Record
	campaignErr  error
)

// colludingRecords builds the colluding-fleet campaign once for the
// whole matrix (same root seed as the scorecard, so failures here
// reproduce against the committed SCORECARD.json scenario). In -short
// mode (CI's race leg) the campaign is scaled down — 60 s, 4 observers
// — so each replay stays a few seconds under the race detector; the
// full run replays the exact scorecard scenario.
func colludingRecords(t *testing.T) []trace.Record {
	t.Helper()
	campaignOnce.Do(func() {
		cfg, err := vanet.DefaultCampaign(vanet.KindColludingFleet)
		if err != nil {
			campaignErr = err
			return
		}
		if testing.Short() {
			cfg.DurationS = 60
			cfg.Observers = 4
			if err := cfg.Validate(); err != nil {
				campaignErr = err
				return
			}
		}
		campaignRecs, _, campaignErr = trace.CampaignRecords(cfg, 1337)
	})
	if campaignErr != nil {
		t.Fatal(campaignErr)
	}
	return campaignRecs
}

// campaignServiceConfig mirrors the scorecard daemon: the trained
// EXPERIMENTS.md boundary, 2-of-3 confirmation, and Equation 9's
// Dist_max matched to the campaign's 1000 m reception range.
func campaignServiceConfig(prune bool) service.Config {
	det := core.DefaultConfig(lda.Boundary{K: 0.000022, B: 0.0067})
	det.LBPrune = prune
	return service.Config{
		Registry: service.RegistryConfig{Monitor: core.MonitorConfig{
			Detector:      det,
			ConfirmWindow: 3,
			ConfirmNeed:   2,
			MaxRangeM:     1000,
		}},
		IngestBuffer: 1 << 15,
	}
}

func countConfirmed(rep Report) int {
	n := 0
	for _, ids := range rep.Confirmed {
		n += len(ids)
	}
	return n
}

// TestCampaignPruneInvariance: lower-bound pruning is a pure optimization,
// so a clean replay of the colluding-fleet campaign must confirm the
// exact same identity sets with pruning on and off.
func TestCampaignPruneInvariance(t *testing.T) {
	records := colludingRecords(t)
	pruned := runScenario(t, &Scenario{Records: records, Service: campaignServiceConfig(true)})
	if countConfirmed(pruned) == 0 {
		t.Fatal("colluding-fleet baseline confirmed nothing; the invariance check would be vacuous")
	}
	if pruned.Delivered != pruned.Sent || pruned.AccountedIngest() != uint64(pruned.Delivered) {
		t.Fatalf("baseline conservation: sent=%d delivered=%d accounted=%d",
			pruned.Sent, pruned.Delivered, pruned.AccountedIngest())
	}
	unpruned := runScenario(t, &Scenario{Records: records, Service: campaignServiceConfig(false)})
	if !reflect.DeepEqual(pruned.Confirmed, unpruned.Confirmed) {
		t.Errorf("pruning moved campaign verdicts:\n   on %v\n  off %v",
			pruned.Confirmed, unpruned.Confirmed)
	}
}

// TestCampaignReorderInvariance: reorder-only chaos (shuffling within
// the server's reorder tolerance, splits, coalescing — no loss) over
// the campaign must reproduce the clean-transport confirmed sets.
func TestCampaignReorderInvariance(t *testing.T) {
	records := colludingRecords(t)
	baseline := runScenario(t, &Scenario{Records: records, Service: campaignServiceConfig(true)})
	for _, seed := range seeds(t) {
		rep := runScenario(t, &Scenario{
			Records: records,
			Service: campaignServiceConfig(true),
			Chaos: Config{
				Seed:         seed,
				SplitProb:    0.3,
				CoalesceProb: 0.3,
			},
			ReorderWindow: 6,
		})
		if rep.Delivered != rep.Sent {
			t.Errorf("seed %d: delivered %d of %d sent (reorder-only chaos must not lose lines)",
				seed, rep.Delivered, rep.Sent)
		}
		if !reflect.DeepEqual(rep.Confirmed, baseline.Confirmed) {
			t.Errorf("seed %d: reorder chaos changed campaign verdicts", seed)
		}
		if rep.RoundErrors != 0 {
			t.Errorf("seed %d: %d round errors", seed, rep.RoundErrors)
		}
	}
}

// TestCampaignCrashRecoveryDeterminism: a server crashed mid-campaign
// (WAL aborted, torn segment tail) must recover to the state a graceful
// restart reaches, so the rest of the replay lands identical verdicts —
// fault seeds and the restart index held equal across the pair.
func TestCampaignCrashRecoveryDeterminism(t *testing.T) {
	records := colludingRecords(t)
	scenario := func() *Scenario {
		return &Scenario{
			Records: records,
			Chaos: Config{
				Seed:      7,
				SplitProb: 0.1,
			},
			ReorderWindow: 4,
			RestartAfter:  len(records) / 2,
		}
	}

	ref := scenario()
	ref.Service = campaignServiceConfig(true)
	ref.Service.WAL = &service.WALConfig{Dir: t.TempDir(), SnapshotInterval: -1}
	refRep := runScenario(t, ref)
	if countConfirmed(refRep) == 0 {
		t.Fatal("graceful-restart run confirmed nothing; the crash comparison would be vacuous")
	}

	crash := scenario()
	crash.Service = campaignServiceConfig(true)
	crash.Service.WAL = &service.WALConfig{Dir: t.TempDir(), SnapshotInterval: -1}
	crash.CrashRestart = true
	crash.TornTailBytes = 29
	crashRep := runScenario(t, crash)

	if !reflect.DeepEqual(crashRep.Confirmed, refRep.Confirmed) {
		t.Errorf("crash-recovered campaign verdicts diverged:\n crash %v\n   ref %v",
			crashRep.Confirmed, refRep.Confirmed)
	}
	if got := crashRep.Metrics["wal_truncations_total"]; got < 1 {
		t.Errorf("torn tail never truncated (wal_truncations_total = %d)", got)
	}
	if crashRep.Metrics["wal_replayed_records_total"] == 0 {
		t.Error("recovery replayed nothing")
	}
}

// TestCampaignRestartDurationTolerance guards the matrix's runtime
// assumption: the full colluding-fleet campaign (hundreds of thousands
// of lines) must stream through the daemon inside the runScenario
// context budget even with a restart in the middle.
func TestCampaignRestartDurationTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive under -race")
	}
	records := colludingRecords(t)
	sc := &Scenario{
		Records:      records,
		Service:      campaignServiceConfig(true),
		RestartAfter: len(records) / 3,
	}
	start := time.Now()
	rep := runScenario(t, sc)
	if elapsed := time.Since(start); elapsed > time.Minute {
		t.Errorf("campaign replay with restart took %v (> 1m leaves no headroom under race)", elapsed)
	}
	if rep.Delivered != rep.Sent {
		t.Errorf("delivered %d of %d sent across graceful restart", rep.Delivered, rep.Sent)
	}
}
