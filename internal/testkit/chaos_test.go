package testkit

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/lda"
	"voiceprint/internal/service"
	"voiceprint/internal/trace"
	"voiceprint/internal/vanet"
)

// The chaos suite replays the paper's Section VI campus field test
// (three observers, one attacker fabricating identities 101 and 102)
// through a live server under transport faults. Ground truth: every
// observer must confirm exactly {1, 101, 102}.

var (
	fieldOnce sync.Once
	fieldRecs []trace.Record
	fieldErr  error
)

func fieldRecords(t *testing.T) []trace.Record {
	t.Helper()
	fieldOnce.Do(func() {
		fieldRecs, fieldErr = trace.FieldTestRecords(trace.CampusArea(), 7, 3*time.Minute)
	})
	if fieldErr != nil {
		t.Fatal(fieldErr)
	}
	return fieldRecs
}

func chaosServiceConfig() service.Config {
	det := core.DefaultConfig(lda.Boundary{K: 0.000025, B: 0.0067})
	// Pruning on, as voiceprintd deploys it: every fixture in this
	// package compares confirmed sets against pruning-off expectations,
	// so the whole suite doubles as the end-to-end proof that LB_Keogh
	// pruning never moves a verdict.
	det.LBPrune = true
	return service.Config{
		Registry: service.RegistryConfig{Monitor: core.MonitorConfig{
			Detector:      det,
			ConfirmWindow: 3,
			ConfirmNeed:   2,
		}},
		// Generous ingest buffer: the suite pins fault accounting, not
		// the shed path (service tests cover that deterministically).
		IngestBuffer: 1 << 15,
	}
}

// seeds returns the fault-seed set: three distinct seeds normally, one
// in -short mode (CI runs the short suite under -race, where each
// scenario is several times slower).
func seeds(t *testing.T) []int64 {
	t.Helper()
	if testing.Short() {
		return []int64{1}
	}
	return []int64{1, 2, 3}
}

var wantConfirmed = map[vanet.NodeID][]vanet.NodeID{
	trace.Normal2ID: {trace.MaliciousID, trace.Sybil101ID, trace.Sybil102ID},
	trace.Normal3ID: {trace.MaliciousID, trace.Sybil101ID, trace.Sybil102ID},
	trace.Normal4ID: {trace.MaliciousID, trace.Sybil101ID, trace.Sybil102ID},
}

// assertNoGoroutineLeak waits for the goroutine count to return to the
// pre-scenario baseline (plus slack for runtime helpers) — a wedged
// reader, writer, applier or scheduler goroutine fails here.
func assertNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func runScenario(t *testing.T, sc *Scenario) Report {
	t.Helper()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := sc.Run(ctx)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	assertNoGoroutineLeak(t, before)
	if rep.EventDecodeErrors != 0 {
		t.Errorf("event stream: %d decode errors", rep.EventDecodeErrors)
	}
	return rep
}

// TestChaosReorderInvariance is the acceptance check: under reorder-only
// chaos (line shuffling within a window smaller than the server's
// reorder tolerance, plus latency, mid-frame splits and coalescing —
// but no loss), the confirmed Sybil set is exactly the clean-transport
// baseline's, for three distinct seeds.
func TestChaosReorderInvariance(t *testing.T) {
	records := fieldRecords(t)
	baseline := runScenario(t, &Scenario{Records: records, Service: chaosServiceConfig()})
	if !reflect.DeepEqual(baseline.Confirmed, wantConfirmed) {
		t.Fatalf("baseline confirmed = %v, want %v", baseline.Confirmed, wantConfirmed)
	}
	if baseline.Delivered != baseline.Sent || baseline.AccountedIngest() != uint64(baseline.Delivered) {
		t.Fatalf("baseline conservation: sent=%d delivered=%d accounted=%d",
			baseline.Sent, baseline.Delivered, baseline.AccountedIngest())
	}
	for _, seed := range seeds(t) {
		rep := runScenario(t, &Scenario{
			Records: records,
			Service: chaosServiceConfig(),
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
		if got := rep.AccountedIngest(); got != uint64(rep.Delivered) {
			t.Errorf("seed %d: accounted %d != delivered %d", seed, got, rep.Delivered)
		}
		if !reflect.DeepEqual(rep.Confirmed, baseline.Confirmed) {
			t.Errorf("seed %d: confirmed %v != baseline %v (reorder-only chaos changed verdicts)",
				seed, rep.Confirmed, baseline.Confirmed)
		}
		if rep.RoundErrors != 0 {
			t.Errorf("seed %d: %d round errors", seed, rep.RoundErrors)
		}
	}
}

// TestChaosDropAndLatency injects the paper's enemy directly — random
// beacon loss plus link delay — and asserts exact shed accounting and
// that detection still convicts the Sybil cluster through 5% loss.
func TestChaosDropAndLatency(t *testing.T) {
	records := fieldRecords(t)
	for _, seed := range seeds(t) {
		rep := runScenario(t, &Scenario{
			Records: records,
			Service: chaosServiceConfig(),
			Chaos: Config{
				Seed:      seed,
				Latency:   time.Microsecond,
				Jitter:    5 * time.Microsecond,
				SplitProb: 0.2,
			},
			DropProb: 0.05,
			DupProb:  0.01,
		})
		wantDelivered := rep.Sent - rep.Dropped + rep.Duplicated
		if rep.Delivered != wantDelivered {
			t.Errorf("seed %d: delivered %d, want %d (sent %d - dropped %d + dup %d)",
				seed, rep.Delivered, wantDelivered, rep.Sent, rep.Dropped, rep.Duplicated)
		}
		if got := rep.AccountedIngest(); got != uint64(rep.Delivered) {
			t.Errorf("seed %d: accounted %d != delivered %d", seed, got, rep.Delivered)
		}
		if rep.Dropped == 0 {
			t.Errorf("seed %d: drop injection never fired", seed)
		}
		if !reflect.DeepEqual(rep.Confirmed, wantConfirmed) {
			t.Errorf("seed %d: confirmed %v under 5%% loss, want %v", seed, rep.Confirmed, wantConfirmed)
		}
	}
}

// TestChaosCorruption flips bytes mid-frame: corrupted lines must be
// shed as malformed (or survive as altered-but-valid JSON) one for one
// — never silently lost, never fatal to the connection or the daemon.
func TestChaosCorruption(t *testing.T) {
	records := fieldRecords(t)
	for _, seed := range seeds(t) {
		rep := runScenario(t, &Scenario{
			Records: records,
			Service: chaosServiceConfig(),
			Chaos: Config{
				Seed:         seed,
				CorruptProb:  0.05,
				SplitProb:    0.2,
				CoalesceProb: 0.2,
			},
		})
		if rep.Delivered != rep.Sent {
			t.Errorf("seed %d: delivered %d of %d sent", seed, rep.Delivered, rep.Sent)
		}
		if got := rep.AccountedIngest(); got != uint64(rep.Delivered) {
			t.Errorf("seed %d: accounted %d != delivered %d (corruption lost lines)",
				seed, got, rep.Delivered)
		}
		if rep.Metrics["malformed_dropped_total"] == 0 {
			t.Errorf("seed %d: 5%% corruption produced no malformed drops", seed)
		}
		if rep.Metrics["connections_closed_total"] != rep.Metrics["connections_opened_total"] {
			t.Errorf("seed %d: connection leak: opened %d closed %d", seed,
				rep.Metrics["connections_opened_total"], rep.Metrics["connections_closed_total"])
		}
	}
}

// TestChaosResets tears the connection down mid-frame at random points;
// the driver redials like a real client. Bytes in flight at the reset
// are genuinely lost, so accounting is bounded, not exact: every fully
// delivered line is accounted, plus at most one partial-frame artifact
// per reset.
func TestChaosResets(t *testing.T) {
	records := fieldRecords(t)
	for _, seed := range seeds(t) {
		rep := runScenario(t, &Scenario{
			Records: records,
			Service: chaosServiceConfig(),
			Chaos: Config{
				Seed:      seed,
				ResetProb: 0.001,
				SplitProb: 0.2,
			},
		})
		if rep.Resets == 0 {
			t.Fatalf("seed %d: reset injection never fired", seed)
		}
		got := rep.AccountedIngest()
		if got < uint64(rep.Delivered) || got > uint64(rep.Delivered+rep.Resets) {
			t.Errorf("seed %d: accounted %d outside [%d, %d]",
				seed, got, rep.Delivered, rep.Delivered+rep.Resets)
		}
		if rep.Metrics["connections_opened_total"] != uint64(1+rep.Resets) {
			t.Errorf("seed %d: %d connections for %d resets",
				seed, rep.Metrics["connections_opened_total"], rep.Resets)
		}
		for recv, ids := range rep.Confirmed {
			if len(ids) == 0 {
				t.Errorf("seed %d: receiver %d confirmed nothing despite redials", seed, recv)
			}
		}
	}
}

// TestChaosDeterminism replays one heavily faulted scenario twice with
// the same seed: every fault decision is PRNG-driven, so the runs must
// agree exactly — the property that makes chaos failures debuggable.
func TestChaosDeterminism(t *testing.T) {
	records := fieldRecords(t)
	sc := func() *Scenario {
		return &Scenario{
			Records: records,
			Service: chaosServiceConfig(),
			Chaos: Config{
				Seed:         42,
				SplitProb:    0.3,
				CoalesceProb: 0.2,
				CorruptProb:  0.02,
			},
			DropProb:      0.03,
			DupProb:       0.01,
			ReorderWindow: 4,
		}
	}
	a := runScenario(t, sc())
	b := runScenario(t, sc())
	type fingerprint struct {
		Sent, Dropped, Duplicated, Delivered, Resets int
		Ingested, Malformed, Stale                   uint64
		Confirmed                                    map[vanet.NodeID][]vanet.NodeID
	}
	fp := func(r Report) fingerprint {
		return fingerprint{
			Sent: r.Sent, Dropped: r.Dropped, Duplicated: r.Duplicated,
			Delivered: r.Delivered, Resets: r.Resets,
			Ingested:  r.Metrics["observations_ingested_total"],
			Malformed: r.Metrics["malformed_dropped_total"],
			Stale:     r.Metrics["stale_dropped_total"],
			Confirmed: r.Confirmed,
		}
	}
	if !reflect.DeepEqual(fp(a), fp(b)) {
		t.Errorf("same seed, different runs:\n  a=%+v\n  b=%+v", fp(a), fp(b))
	}
}

// TestChaosStalledSubscribers parks subscribers that never read while
// the scenario runs; the daemon must finish regardless and account any
// events it shed on their behalf.
func TestChaosStalledSubscribers(t *testing.T) {
	records := fieldRecords(t)
	cfg := chaosServiceConfig()
	cfg.EventBuffer = 4
	rep := runScenario(t, &Scenario{
		Records:            records,
		Service:            cfg,
		StalledSubscribers: 3,
	})
	if !reflect.DeepEqual(rep.Confirmed, wantConfirmed) {
		t.Errorf("confirmed %v with stalled subscribers, want %v", rep.Confirmed, wantConfirmed)
	}
	if opened := rep.Metrics["connections_opened_total"]; opened != 4 {
		t.Errorf("connections opened = %d, want 4 (1 ingest + 3 stalled)", opened)
	}
}
