package fusion

import (
	"reflect"
	"testing"

	"voiceprint/internal/core"
	"voiceprint/internal/service"
	"voiceprint/internal/vanet"
)

// outcomeWith builds one receiver's round: considered identities,
// voiceprint-flagged pairs, and position-flagged identities.
func outcomeWith(recv vanet.NodeID, considered []vanet.NodeID, pairs [][2]vanet.NodeID, posFlags []vanet.NodeID) service.RoundOutcome {
	res := &core.Result{
		Suspects:   map[vanet.NodeID]bool{},
		Considered: considered,
		Signals:    map[vanet.NodeID]map[string]float64{},
	}
	for _, p := range pairs {
		res.Pairs = append(res.Pairs, core.PairDistance{A: p[0], B: p[1], Flagged: true})
		res.Suspects[p[0]] = true
		res.Suspects[p[1]] = true
	}
	for _, id := range posFlags {
		res.Suspects[id] = true
		res.Signals[id] = map[string]float64{PositionSignalName: 25}
	}
	return service.RoundOutcome{Recv: recv, Result: res}
}

func TestCoordinatorConvictsAnchoredClique(t *testing.T) {
	coord := NewCoordinator()
	all := []vanet.NodeID{1, 2, 101, 102, 103}
	triangle := [][2]vanet.NodeID{{101, 102}, {101, 103}, {102, 103}}
	// Receivers A and B each see the full triangle (edge quorum 2) and
	// each position-flag 101 (position quorum 2). Receiver C saw the
	// identities but flagged nothing — conviction must still reach it.
	outs := []service.RoundOutcome{
		outcomeWith(901, all, triangle, []vanet.NodeID{101}),
		outcomeWith(902, all, triangle, []vanet.NodeID{101}),
		outcomeWith(903, all, nil, nil),
	}
	fused := coord.Coordinate(outs)
	res := fused[2].Result
	for _, id := range []vanet.NodeID{101, 102, 103} {
		if !res.Suspects[id] {
			t.Errorf("receiver 903 missing convicted clique member %d: %v", id, res.Suspects)
		}
		if _, ok := res.Signals[id][CliqueSignalName]; !ok {
			t.Errorf("clique attribution missing for %d: %v", id, res.Signals[id])
		}
	}
	if res.Suspects[1] || res.Suspects[2] {
		t.Errorf("honest identities convicted: %v", res.Suspects)
	}
}

func TestCoordinatorRequiresPositionAnchor(t *testing.T) {
	coord := NewCoordinator()
	all := []vanet.NodeID{101, 102, 103}
	triangle := [][2]vanet.NodeID{{101, 102}, {101, 103}, {102, 103}}
	// Strong voiceprint agreement but no position-flagged member: raw
	// voiceprint flags must never propagate cross-receiver alone.
	outs := []service.RoundOutcome{
		outcomeWith(901, all, triangle, nil),
		outcomeWith(902, all, triangle, nil),
		outcomeWith(903, all, nil, nil),
	}
	fused := coord.Coordinate(outs)
	if got := fused[2].Result; len(got.Suspects) != 0 {
		t.Errorf("unanchored clique convicted at receiver 903: %v", got.Suspects)
	}
	// One position vote is below the quorum of two — still no conviction.
	outs = []service.RoundOutcome{
		outcomeWith(901, all, triangle, []vanet.NodeID{101}),
		outcomeWith(902, all, triangle, nil),
		outcomeWith(903, all, nil, nil),
	}
	if got := coord.Coordinate(outs)[2].Result; len(got.Suspects) != 0 {
		t.Errorf("singly-voted clique convicted: %v", got.Suspects)
	}
}

func TestCoordinatorEdgeQuorum(t *testing.T) {
	coord := NewCoordinator()
	all := []vanet.NodeID{101, 102}
	pair := [][2]vanet.NodeID{{101, 102}}
	// Only one receiver flags the pair: below the edge quorum, the graph
	// stays empty no matter how well the position votes anchor.
	outs := []service.RoundOutcome{
		outcomeWith(901, all, pair, []vanet.NodeID{101}),
		outcomeWith(902, all, nil, []vanet.NodeID{101}),
		outcomeWith(903, all, nil, nil),
	}
	if got := coord.Coordinate(outs)[2].Result; len(got.Suspects) != 0 {
		t.Errorf("single-receiver edge convicted: %v", got.Suspects)
	}
}

func TestCoordinatorBoostsOnlyConsidered(t *testing.T) {
	coord := NewCoordinator()
	all := []vanet.NodeID{101, 102, 103}
	triangle := [][2]vanet.NodeID{{101, 102}, {101, 103}, {102, 103}}
	outs := []service.RoundOutcome{
		outcomeWith(901, all, triangle, []vanet.NodeID{101}),
		outcomeWith(902, all, triangle, []vanet.NodeID{101}),
		// Receiver 903 never considered 103 this round: convicting it
		// there would corrupt the round's accounting (metrics.Score
		// requires every suspect in Considered).
		outcomeWith(903, []vanet.NodeID{101, 102}, nil, nil),
	}
	res := coord.Coordinate(outs)[2].Result
	if res.Suspects[103] {
		t.Errorf("receiver 903 convicted unconsidered 103: %v", res.Suspects)
	}
	if !res.Suspects[101] || !res.Suspects[102] {
		t.Errorf("considered clique members not convicted: %v", res.Suspects)
	}
}

func TestCoordinatorNoFindingsIsIdentity(t *testing.T) {
	coord := NewCoordinator()
	outs := []service.RoundOutcome{
		outcomeWith(901, []vanet.NodeID{1, 2}, nil, nil),
		{Recv: 902}, // errored round: nil Result must be tolerated
	}
	fused := coord.Coordinate(outs)
	if !reflect.DeepEqual(fused, outs) {
		t.Error("coordinator with nothing to convict must return outcomes unchanged")
	}
}
