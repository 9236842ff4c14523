package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// recordingObserver collects per-stage timings; safe for concurrent use
// like the contract requires.
type recordingObserver struct {
	mu     sync.Mutex
	stages []Stage
	total  map[Stage]time.Duration
	calls  map[Stage]int
}

func newRecordingObserver() *recordingObserver {
	return &recordingObserver{total: make(map[Stage]time.Duration), calls: make(map[Stage]int)}
}

func (o *recordingObserver) ObserveStage(s Stage, d time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.stages = append(o.stages, s)
	o.total[s] += d
	o.calls[s]++
}

// TestObserverStageSequence: a full detector round reports its four
// stages exactly once each, in pipeline order, with non-negative
// durations; a monitor round additionally leads with the window stage.
func TestObserverStageSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	series := sybilCluster(rng, 4)
	obs := newRecordingObserver()
	cfg := DefaultConfig(testBoundary())
	cfg.MinMedianRSSIDBm = 0
	cfg.Observer = obs
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Detect(series, 20); err != nil {
		t.Fatal(err)
	}
	want := []Stage{StageCollect, StageNormalize, StageCompare, StageConfirm}
	if len(obs.stages) != len(want) {
		t.Fatalf("stages = %v, want %v", obs.stages, want)
	}
	for i, s := range want {
		if obs.stages[i] != s {
			t.Fatalf("stage %d = %v, want %v", i, obs.stages[i], s)
		}
	}
	for s, d := range obs.total {
		if d < 0 {
			t.Errorf("stage %v duration %v < 0", s, d)
		}
	}

	// Degenerate round (too few identities): only collection runs.
	obs2 := newRecordingObserver()
	cfg.Observer = obs2
	det2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det2.Detect(nil, 20); err != nil {
		t.Fatal(err)
	}
	if len(obs2.stages) != 1 || obs2.stages[0] != StageCollect {
		t.Errorf("degenerate round stages = %v, want [collect]", obs2.stages)
	}

	// Monitor round: window extraction stage leads, then the detector's
	// four; a repeat round with no new input runs all five again.
	obs3 := newRecordingObserver()
	cfg.Observer = obs3
	mon, err := NewMonitor(MonitorConfig{Detector: cfg, ReorderTolerance: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for id, s := range series {
		for i := 0; i < s.Len(); i++ {
			sample := s.At(i)
			if err := mon.Observe(id, sample.T, sample.RSSI); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := mon.Detect(); err != nil {
		t.Fatal(err)
	}
	if obs3.calls[StageWindow] != 1 {
		t.Errorf("monitor round reported window stage %d times, want 1", obs3.calls[StageWindow])
	}
	if obs3.calls[StageCompare] != 1 {
		t.Errorf("monitor round reported compare stage %d times, want 1", obs3.calls[StageCompare])
	}
	before := len(obs3.stages)
	if _, err := mon.Detect(); err != nil { // no new input
		t.Fatal(err)
	}
	repeat := obs3.stages[before:]
	wantMon := append([]Stage{StageWindow}, want...)
	if !slices.Equal(repeat, wantMon) {
		t.Errorf("repeat round stages = %v, want %v", repeat, wantMon)
	}
}

func TestStageStrings(t *testing.T) {
	want := map[Stage]string{
		StageWindow:    "window",
		StageCollect:   "collect",
		StageNormalize: "normalize",
		StageCompare:   "compare",
		StageConfirm:   "confirm",
		NumStages:      "unknown",
	}
	for s, label := range want {
		if s.String() != label {
			t.Errorf("Stage(%d).String() = %q, want %q", s, s.String(), label)
		}
	}
}

// TestObserveReorderTolerance: with a configured tolerance Observe
// clamps late-but-tolerable samples forward and rejects older ones,
// while the zero-value config keeps strict monotonicity.
func TestObserveReorderTolerance(t *testing.T) {
	strict, err := NewMonitor(MonitorConfig{Detector: DefaultConfig(testBoundary())})
	if err != nil {
		t.Fatal(err)
	}
	if err := strict.Observe(1, time.Second, -60); err != nil {
		t.Fatal(err)
	}
	if err := strict.Observe(1, 900*time.Millisecond, -60); err == nil {
		t.Error("strict monitor accepted a regressed timestamp")
	}

	cfg := MonitorConfig{Detector: DefaultConfig(testBoundary()), ReorderTolerance: 200 * time.Millisecond}
	tol, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tol.Observe(1, time.Second, -60); err != nil {
		t.Fatal(err)
	}
	if err := tol.Observe(2, 900*time.Millisecond, -61); err != nil {
		t.Errorf("within-tolerance sample rejected: %v", err)
	}
	if got := tol.Now(); got != time.Second {
		t.Errorf("clock moved to %v after clamped sample, want 1s", got)
	}
	if err := tol.Observe(2, 700*time.Millisecond, -61); err == nil {
		t.Error("sample older than the tolerance accepted")
	}

	// Negative tolerance normalizes to strict.
	neg, err := NewMonitor(MonitorConfig{Detector: DefaultConfig(testBoundary()), ReorderTolerance: -time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := neg.Observe(1, time.Second, -60); err != nil {
		t.Fatal(err)
	}
	if err := neg.Observe(1, 999*time.Millisecond, -60); err == nil {
		t.Error("negative-tolerance monitor accepted a regressed timestamp")
	}
}
