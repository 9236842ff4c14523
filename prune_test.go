package voiceprint

import (
	"sort"
	"testing"
	"time"
)

// pruneTestMonitor builds a monitor with the given compare-phase
// configuration and feeds it the full 25-second highway run, interleaved
// by timestamp (the monitor clock rejects reordered observations).
func pruneTestMonitor(t *testing.T, ids []NodeID, series map[NodeID]*Series, prune bool) *Monitor {
	t.Helper()
	cfg := MonitorConfig{Detector: DefaultDetectorConfig(benchBoundary()), MaxRangeM: 1000}
	cfg.Detector.MinMedianRSSIDBm = 0 // keep the whole ~97-identity neighborhood in view
	cfg.Detector.LBPrune = prune
	mon, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type obs struct {
		id   NodeID
		t    time.Duration
		rssi float64
	}
	var all []obs
	for _, id := range ids {
		s := series[id]
		for i := 0; i < s.Len(); i++ {
			smp := s.At(i)
			all = append(all, obs{id, smp.T, smp.RSSI})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].t < all[j].t })
	for _, o := range all {
		if err := mon.Observe(o.id, o.t, o.rssi); err != nil {
			t.Fatal(err)
		}
	}
	return mon
}

// TestPruneVerdictInvariance is the acceptance bar for compare-phase
// pruning on a realistic neighborhood: a pruning monitor over the
// 97-identity highway run must convict and confirm exactly the same
// identities as an unpruned one, on a full round and on incremental
// rounds where a beacon burst from four identities keeps landing at the
// same window end.
func TestPruneVerdictInvariance(t *testing.T) {
	series := detectBenchSeries(t)
	ids := make([]NodeID, 0, len(series))
	for id := range series {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	end := 20 * time.Second

	exact := pruneTestMonitor(t, ids, series, false)
	pruned := pruneTestMonitor(t, ids, series, true)
	prunedPairs := 0
	for r := 0; r < 3; r++ {
		if r > 0 {
			for di, id := range ids[:4] {
				rssi := -58.0 - 4.5*float64(di) - 0.3*float64(r)
				for _, mon := range []*Monitor{exact, pruned} {
					if err := mon.Observe(id, end, rssi); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		want, err := exact.DetectAt(end)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pruned.DetectAt(end)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Pairs) != len(want.Pairs) || len(want.Pairs) < 4000 {
			t.Fatalf("round %d: %d pairs pruned vs %d exact; want the same ~4600", r, len(got.Pairs), len(want.Pairs))
		}
		if len(want.Suspects) == 0 {
			t.Fatalf("round %d: no suspects; the comparison proves nothing", r)
		}
		if !sameIDSet(got.Suspects, want.Suspects) || !sameIDSet(got.Confirmed, want.Confirmed) {
			t.Errorf("round %d: pruned suspects/confirmed %v/%v diverge from unpruned %v/%v",
				r, got.Suspects, got.Confirmed, want.Suspects, want.Confirmed)
		}
		prunedPairs += got.PairsPrunedLB
	}
	if prunedPairs == 0 {
		t.Error("pruning never fired; the comparison proves nothing")
	}
}

func sameIDSet(a, b map[NodeID]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}
