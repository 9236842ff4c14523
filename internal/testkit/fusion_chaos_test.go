package testkit

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/fusion"
	"voiceprint/internal/service"
	"voiceprint/internal/vanet"
)

// The fusion chaos matrix extends the campaign matrix to the fused
// pipeline: the colluding-fleet campaign replayed with the position
// signal and cross-receiver coordinator enabled must land the same
// per-round verdicts on a clean transport, under reorder-only chaos,
// and across a crash-recovery vs graceful-restart pair. Fused verdicts
// live in each round's Result (the coordinator rewrites outcomes, not
// monitor state), so the matrix compares per-round suspect logs rather
// than only the monitors' final confirmation sets.

// fusedCampaignConfig is campaignServiceConfig plus the default fusion
// wiring: the position-consistency signal on every monitor and the
// co-observation clique coordinator over each synchronized sweep —
// exactly what `voiceprintd -fusion` and the fused scorecard deploy.
func fusedCampaignConfig() service.Config {
	cfg := campaignServiceConfig(true)
	cfg.Registry.Monitor.Fusion = core.FusionOptions{
		Enabled: true,
		Signals: []core.Signal{fusion.NewPositionSignal()},
	}
	cfg.Coordinator = fusion.NewCoordinator()
	return cfg
}

// verdictLog flattens every graded round into "boundary recv: ids"
// lines (sorted suspects, receivers in sweep order) so whole runs
// compare with one DeepEqual and diffs read directly in failures.
func verdictLog(sc *Scenario) *[]string {
	log := &[]string{}
	sc.OnRound = func(boundary time.Duration, outcomes []service.RoundOutcome) {
		for _, out := range outcomes {
			if out.Err != nil || out.Result == nil {
				continue
			}
			ids := make([]vanet.NodeID, 0, len(out.Result.Suspects))
			for id, ok := range out.Result.Suspects {
				if ok {
					ids = append(ids, id)
				}
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			*log = append(*log, fmt.Sprintf("%v %d: %v", boundary, out.Recv, ids))
		}
	}
	return log
}

func suspectCount(log []string) int {
	n := 0
	for _, line := range log {
		if i := indexColon(line); i >= 0 {
			n += len(parseIDs(line[i+2:]))
		}
	}
	return n
}

// TestCampaignFusionAddsDetections: on the colluding fleet — where
// plain Voiceprint is weakest (same-radio identities churn through the
// pool) — the fused pipeline must only ever add suspects on top of the
// plain verdicts (the voiceprint signal inside it is bit-identical),
// and must add some: a fused run that flags nothing extra here would
// mean the position signal and coordinator are dead code.
func TestCampaignFusionAddsDetections(t *testing.T) {
	records := colludingRecords(t)

	plainSc := &Scenario{Records: records, Service: campaignServiceConfig(true)}
	plainLog := verdictLog(plainSc)
	runScenario(t, plainSc)

	fusedSc := &Scenario{Records: records, Service: fusedCampaignConfig()}
	fusedLog := verdictLog(fusedSc)
	fusedRep := runScenario(t, fusedSc)
	if fusedRep.Delivered != fusedRep.Sent || fusedRep.AccountedIngest() != uint64(fusedRep.Delivered) {
		t.Fatalf("fused conservation: sent=%d delivered=%d accounted=%d",
			fusedRep.Sent, fusedRep.Delivered, fusedRep.AccountedIngest())
	}

	if len(*plainLog) != len(*fusedLog) {
		t.Fatalf("round counts diverged: plain %d fused %d", len(*plainLog), len(*fusedLog))
	}
	plainN, fusedN := suspectCount(*plainLog), suspectCount(*fusedLog)
	if fusedN <= plainN {
		t.Errorf("fusion added no detections on the colluding fleet: plain %d fused %d suspect verdicts",
			plainN, fusedN)
	}
	// Supersession line by line: every plain suspect must survive fusion
	// (fusion only unions flags in; it never withdraws a voiceprint one).
	for i := range *plainLog {
		if !supersedes((*fusedLog)[i], (*plainLog)[i]) {
			t.Errorf("fused round dropped plain suspects:\n plain %s\n fused %s",
				(*plainLog)[i], (*fusedLog)[i])
		}
	}
}

// supersedes reports whether fused and plain describe the same round
// (identical "boundary recv: " prefix) and fused's suspect set
// contains plain's. Both lines are "%v %d: [id id ...]".
func supersedes(fused, plain string) bool {
	fi, pi := indexColon(fused), indexColon(plain)
	if fi < 0 || pi < 0 || fused[:fi] != plain[:pi] {
		return false
	}
	fset := idSet(fused[fi+2:])
	for _, id := range parseIDs(plain[pi+2:]) {
		if !fset[id] {
			return false
		}
	}
	return true
}

func indexColon(s string) int {
	for i := 0; i+1 < len(s); i++ {
		if s[i] == ':' && s[i+1] == ' ' {
			return i
		}
	}
	return -1
}

func parseIDs(bracketed string) []int64 {
	var ids []int64
	cur, in := int64(0), false
	for _, r := range bracketed {
		switch {
		case r >= '0' && r <= '9':
			cur, in = cur*10+int64(r-'0'), true
		default:
			if in {
				ids = append(ids, cur)
				cur, in = 0, false
			}
		}
	}
	if in {
		ids = append(ids, cur)
	}
	return ids
}

func idSet(bracketed string) map[int64]bool {
	set := map[int64]bool{}
	for _, id := range parseIDs(bracketed) {
		set[id] = true
	}
	return set
}

// TestCampaignFusionReorderInvariance: reorder-only transport chaos
// (shuffles inside the server's tolerance, splits, coalescing — no
// loss) must not move a single fused verdict: the position signal
// consumes time-bucketed claims and the coordinator consumes per-round
// results, so both are order-insensitive once ingest is quiesced.
func TestCampaignFusionReorderInvariance(t *testing.T) {
	records := colludingRecords(t)
	baseSc := &Scenario{Records: records, Service: fusedCampaignConfig()}
	baseLog := verdictLog(baseSc)
	runScenario(t, baseSc)
	if suspectCount(*baseLog) == 0 {
		t.Fatal("fused baseline flagged nothing; the invariance check would be vacuous")
	}

	for _, seed := range seeds(t) {
		sc := &Scenario{
			Records: records,
			Service: fusedCampaignConfig(),
			Chaos: Config{
				Seed:         seed,
				SplitProb:    0.3,
				CoalesceProb: 0.3,
			},
			ReorderWindow: 6,
		}
		chaosLog := verdictLog(sc)
		rep := runScenario(t, sc)
		if rep.Delivered != rep.Sent {
			t.Errorf("seed %d: delivered %d of %d sent (reorder-only chaos must not lose lines)",
				seed, rep.Delivered, rep.Sent)
		}
		if !reflect.DeepEqual(*chaosLog, *baseLog) {
			t.Errorf("seed %d: reorder chaos moved fused verdicts", seed)
		}
		if rep.RoundErrors != 0 {
			t.Errorf("seed %d: %d round errors", seed, rep.RoundErrors)
		}
	}
}

// TestCampaignFusionCrashRecoveryDeterminism: a fused daemon crashed
// mid-campaign — WAL aborted after a pre-crash compacting snapshot (so
// recovery loads a version-2 snapshot carrying claimed positions) plus
// a torn segment tail — must recover to the state a graceful restart
// reaches: identical fused verdicts for the rest of the replay and
// identical final confirmation sets. This is the end-to-end proof that
// claimed-position evidence survives the WAL round trip.
func TestCampaignFusionCrashRecoveryDeterminism(t *testing.T) {
	records := colludingRecords(t)
	scenario := func() *Scenario {
		return &Scenario{
			Records: records,
			Chaos: Config{
				Seed:      11,
				SplitProb: 0.1,
			},
			ReorderWindow: 4,
			RestartAfter:  len(records) / 2,
		}
	}

	ref := scenario()
	ref.Service = fusedCampaignConfig()
	ref.Service.WAL = &service.WALConfig{Dir: t.TempDir(), SnapshotInterval: -1}
	refLog := verdictLog(ref)
	refRep := runScenario(t, ref)
	if suspectCount(*refLog) == 0 {
		t.Fatal("graceful-restart fused run flagged nothing; the crash comparison would be vacuous")
	}

	crash := scenario()
	crash.Service = fusedCampaignConfig()
	crashDir := t.TempDir()
	crash.Service.WAL = &service.WALConfig{Dir: crashDir, SnapshotInterval: -1}
	crash.CrashRestart = true
	crash.SnapshotBeforeCrash = true
	crash.TornTailBytes = 23
	crashLog := verdictLog(crash)
	crashRep := runScenario(t, crash)

	if !reflect.DeepEqual(*crashLog, *refLog) {
		t.Error("crash-recovered fused verdicts diverged from the graceful restart")
	}
	if !reflect.DeepEqual(crashRep.Confirmed, refRep.Confirmed) {
		t.Errorf("crash-recovered confirmation sets diverged:\n crash %v\n   ref %v",
			crashRep.Confirmed, refRep.Confirmed)
	}
	if got := crashRep.Metrics["wal_truncations_total"]; got < 1 {
		t.Errorf("torn tail never truncated (wal_truncations_total = %d)", got)
	}
	// The pre-crash snapshot (written with claims, version 2) must be on
	// disk — recovery's state equality above proves it loaded cleanly.
	snaps, err := filepath.Glob(filepath.Join(crashDir, "*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Errorf("no snapshot survived the crash in %s (%v)", crashDir, err)
	}
}
