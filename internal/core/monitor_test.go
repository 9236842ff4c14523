package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"voiceprint/internal/vanet"
)

func testMonitor(t *testing.T, confirmWindow, confirmNeed int) *Monitor {
	t.Helper()
	cfg := DefaultConfig(testBoundary())
	cfg.MinMedianRSSIDBm = 0
	m, err := NewMonitor(MonitorConfig{
		Detector:      cfg,
		ConfirmWindow: confirmWindow,
		ConfirmNeed:   confirmNeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMonitorDetectsCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	m := testMonitor(t, 1, 1)
	// Feed identity-by-identity is not time-monotone; stream per step
	// instead.
	series := sybilCluster(rng, 5)
	maxLen := 0
	for _, s := range series {
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	idx := make(map[vanet.NodeID]int, len(series))
	for step := 0; step < maxLen; step++ {
		for id, s := range series {
			i := idx[id]
			if i >= s.Len() {
				continue
			}
			smp := s.At(i)
			if smp.T <= time.Duration(step)*beat {
				if err := m.Observe(id, time.Duration(step)*beat, smp.RSSI); err != nil {
					t.Fatal(err)
				}
				idx[id] = i + 1
			}
		}
	}
	res, err := m.Detect()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []vanet.NodeID{1, 101, 102} {
		if !res.Suspects[id] {
			t.Errorf("cluster identity %d not flagged", id)
		}
	}
	confirmed := m.Confirmed()
	if !confirmed[1] || !confirmed[101] || !confirmed[102] {
		t.Errorf("confirmed = %v, want the cluster", confirmed)
	}
}

func TestMonitorRejectsBackwardsTime(t *testing.T) {
	m := testMonitor(t, 1, 1)
	if err := m.Observe(1, time.Second, -70); err != nil {
		t.Fatal(err)
	}
	if err := m.Observe(2, 500*time.Millisecond, -70); err == nil {
		t.Error("backwards observation should error")
	}
}

func TestMonitorEvictsSilentIdentities(t *testing.T) {
	m := testMonitor(t, 1, 1)
	if err := m.Observe(7, 0, -70); err != nil {
		t.Fatal(err)
	}
	if m.Tracked() != 1 {
		t.Fatalf("tracked = %d", m.Tracked())
	}
	// Keep another identity alive far past the eviction horizon.
	for ts := time.Duration(0); ts < 2*time.Minute; ts += time.Second {
		if err := m.Observe(8, ts, -72); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Detect(); err != nil {
		t.Fatal(err)
	}
	if m.Tracked() != 1 {
		t.Errorf("tracked = %d after eviction, want 1 (identity 8)", m.Tracked())
	}
}

func TestMonitorConfigValidation(t *testing.T) {
	if _, err := NewMonitor(MonitorConfig{Detector: Config{MinSamples: -1}}); err == nil {
		t.Error("bad detector config should error")
	}
	if _, err := NewMonitor(MonitorConfig{Detector: DefaultConfig(testBoundary()), MaxRangeM: -5}); err == nil {
		t.Error("negative range should error")
	}
	if _, err := NewMonitor(MonitorConfig{Detector: DefaultConfig(testBoundary()), ConfirmWindow: 2, ConfirmNeed: 5}); err == nil {
		t.Error("need > window should error")
	}
}

func TestMonitorHonorsEvictAfter(t *testing.T) {
	cfg := DefaultConfig(testBoundary())
	cfg.MinMedianRSSIDBm = 0
	m, err := NewMonitor(MonitorConfig{Detector: cfg, EvictAfter: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Observe(7, 0, -70); err != nil {
		t.Fatal(err)
	}
	// Keep another identity alive just past the configured horizon —
	// far short of the 2x-window default that used to be hardcoded.
	for ts := time.Duration(0); ts <= 6*time.Second; ts += time.Second {
		if err := m.Observe(8, ts, -72); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Detect(); err != nil {
		t.Fatal(err)
	}
	if m.Tracked() != 1 {
		t.Errorf("tracked = %d after eviction, want 1 (identity 8)", m.Tracked())
	}
	if m.Evicted() != 1 {
		t.Errorf("evicted counter = %d, want 1", m.Evicted())
	}
	if _, err := NewMonitor(MonitorConfig{Detector: cfg, EvictAfter: -time.Second}); err == nil {
		t.Error("negative EvictAfter should error")
	}
}

func TestConfirmerSnapshotIsReadOnly(t *testing.T) {
	c, err := NewConfirmer(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	heard := []vanet.NodeID{1}
	c.Update(heard, map[vanet.NodeID]bool{1: true})
	// Polling confirmation state between rounds must not advance the
	// K-of-N window.
	for i := 0; i < 5; i++ {
		if got := c.Confirmed(); len(got) != 0 {
			t.Fatalf("confirmed after 1 of 2 needed flags: %v", got)
		}
	}
	if got := c.Update(heard, map[vanet.NodeID]bool{1: true}); !got[1] {
		t.Errorf("second flagged round must confirm, got %v", got)
	}
	if got := c.Confirmed(); !got[1] {
		t.Errorf("snapshot after confirmation = %v", got)
	}
}

// TestMonitorConcurrentAccess exercises the monitor's thread safety:
// concurrent feeders and a detector loop, meaningful under -race.
func TestMonitorConcurrentAccess(t *testing.T) {
	cfg := DefaultConfig(testBoundary())
	cfg.MinMedianRSSIDBm = 0
	m, err := NewMonitor(MonitorConfig{
		Detector:         cfg,
		ConfirmWindow:    3,
		ConfirmNeed:      2,
		ReorderTolerance: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := vanet.NodeID(10 + g)
			for i := 0; i < 300; i++ {
				t := time.Duration(i) * 10 * time.Millisecond
				_ = m.Observe(id, t, -70+float64(g))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := m.Detect(); err != nil {
				t.Error(err)
				return
			}
			_ = m.Confirmed()
			_ = m.Tracked()
			_ = m.Now()
			_ = m.Evicted()
		}
	}()
	wg.Wait()
	if m.Tracked() != 4 {
		t.Errorf("tracked = %d, want 4", m.Tracked())
	}
}

func TestMonitorMultiPeriodConfirmation(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	m := testMonitor(t, 3, 2)
	// One noisy round must not confirm; two must.
	start := time.Duration(0)
	feedOrdered := func(offset time.Duration) {
		series := sybilCluster(rng, 4)
		maxLen := 0
		for _, s := range series {
			if s.Len() > maxLen {
				maxLen = s.Len()
			}
		}
		idx := make(map[vanet.NodeID]int, len(series))
		for step := 0; step < maxLen; step++ {
			for id, s := range series {
				i := idx[id]
				if i >= s.Len() {
					continue
				}
				if s.At(i).T <= time.Duration(step)*beat {
					_ = m.Observe(id, offset+time.Duration(step)*beat, s.At(i).RSSI)
					idx[id] = i + 1
				}
			}
		}
	}
	feedOrdered(start)
	res1, err := m.Detect()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Confirmed()) != 0 {
		t.Errorf("one round must not confirm with need=2, got %v", m.Confirmed())
	}
	feedOrdered(20 * time.Second)
	res2, err := m.Detect()
	if err != nil {
		t.Fatal(err)
	}
	confirmed := m.Confirmed()
	// Identities flagged in both rounds must be confirmed; flagged-once
	// identities must not be (the rule needs 2 of the last 3 rounds).
	for id := range res1.Suspects {
		if res2.Suspects[id] && !confirmed[id] {
			t.Errorf("identity %d flagged twice but not confirmed", id)
		}
		if !res2.Suspects[id] && confirmed[id] {
			t.Errorf("identity %d flagged once but confirmed", id)
		}
	}
	// No normal identity sneaks in.
	for id := range confirmed {
		if id < 100 && id != 1 {
			t.Errorf("normal identity %d confirmed", id)
		}
	}
	if len(confirmed) == 0 {
		t.Error("repeat offenders should be confirmed after two rounds")
	}
}

// TestDetectAtHonorsRequestedBoundary is the regression test for the
// fixed-boundary drift bug: DetectAt(at) used to run the round at
// max(at, monitor clock), so once observations streamed past the boundary
// the requested window silently widened to the newest beacon. An identity
// heard only AFTER the boundary must not appear in the round.
func TestDetectAtHonorsRequestedBoundary(t *testing.T) {
	m := testMonitor(t, 1, 1)
	for step := 0; step <= 240; step++ { // 0..24 s at 10 Hz
		at := time.Duration(step) * beat
		for _, id := range []vanet.NodeID{1, 2, 3} {
			if err := m.Observe(id, at, -60-float64(id)); err != nil {
				t.Fatal(err)
			}
		}
		if at > 20*time.Second {
			// Identity 99 exists only in (20 s, 24 s]: 39 samples, enough
			// to clear MinSamples if it leaked into the window.
			if err := m.Observe(99, at, -55); err != nil {
				t.Fatal(err)
			}
		}
	}
	boundary := 20 * time.Second
	res, err := m.DetectAt(boundary)
	if err != nil {
		t.Fatal(err)
	}
	if res.WindowEnd != boundary {
		t.Errorf("WindowEnd = %v, want the requested boundary %v", res.WindowEnd, boundary)
	}
	for _, id := range res.Considered {
		if id == 99 {
			t.Fatalf("identity heard only after the %v boundary leaked into the round (Considered = %v)",
				boundary, res.Considered)
		}
	}
	if len(res.Considered) != 3 {
		t.Errorf("Considered = %v, want ids 1..3", res.Considered)
	}
	if m.Now() < 24*time.Second {
		t.Errorf("monitor clock regressed to %v", m.Now())
	}
}

// TestMonitorUnchangedRoundCache: a round whose input fingerprint
// (observation version, window end) matches the previous round reuses its
// result — but the K-of-N confirmation history must still advance.
func TestMonitorUnchangedRoundCache(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	m := testMonitor(t, 5, 3)
	series := sybilCluster(rng, 5)
	maxLen := 0
	for _, s := range series {
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	idx := make(map[vanet.NodeID]int, len(series))
	for step := 0; step < maxLen; step++ {
		for id, s := range series {
			i := idx[id]
			if i >= s.Len() {
				continue
			}
			if s.At(i).T <= time.Duration(step)*beat {
				if err := m.Observe(id, time.Duration(step)*beat, s.At(i).RSSI); err != nil {
					t.Fatal(err)
				}
				idx[id] = i + 1
			}
		}
	}
	res1, err := m.Detect()
	if err != nil {
		t.Fatal(err)
	}
	if res1.Cached {
		t.Fatal("first round must not be cached")
	}
	if len(res1.Suspects) == 0 {
		t.Fatal("cluster not flagged; cache test needs a flagging round")
	}
	if len(res1.Confirmed) != 0 {
		t.Fatalf("confirmed after 1 of need-3 rounds: %v", res1.Confirmed)
	}
	res2, err := m.Detect()
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Fatal("identical second round should hit the unchanged-round cache")
	}
	res3, err := m.Detect()
	if err != nil {
		t.Fatal(err)
	}
	if !res3.Cached {
		t.Fatal("identical third round should hit the unchanged-round cache")
	}
	if m.CachedRounds() != 2 {
		t.Errorf("CachedRounds = %d, want 2", m.CachedRounds())
	}
	// Bit-identical payload.
	if len(res2.Pairs) != len(res1.Pairs) || res2.WindowEnd != res1.WindowEnd {
		t.Errorf("cached round differs: %d pairs end %v vs %d pairs end %v",
			len(res2.Pairs), res2.WindowEnd, len(res1.Pairs), res1.WindowEnd)
	}
	for i := range res1.Pairs {
		if res1.Pairs[i] != res2.Pairs[i] {
			t.Fatalf("cached pair %d differs: %+v vs %+v", i, res2.Pairs[i], res1.Pairs[i])
		}
	}
	for id := range res1.Suspects {
		if !res3.Suspects[id] {
			t.Errorf("cached round lost suspect %d", id)
		}
	}
	// Three flagging rounds → the 3-of-5 rule confirms, proving cached
	// rounds still advance the confirmation history.
	for id := range res1.Suspects {
		if !res3.Confirmed[id] {
			t.Errorf("suspect %d not confirmed after 3 rounds (cached rounds must advance K-of-N)", id)
		}
	}
	// A new observation invalidates the cache.
	if err := m.Observe(1, m.Now()+beat, -60); err != nil {
		t.Fatal(err)
	}
	res4, err := m.Detect()
	if err != nil {
		t.Fatal(err)
	}
	if res4.Cached {
		t.Error("round after a new observation must not be cached")
	}
	// Same version but a different window end is also a miss.
	res5, err := m.DetectAt(m.Now() + time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res5.Cached {
		t.Error("round at a new window end must not be cached")
	}
}
