package fusion

import (
	"sort"

	"voiceprint/internal/core"
	"voiceprint/internal/service"
	"voiceprint/internal/vanet"
)

// CliqueSignalName is the attribution key the coordinator writes for
// identities convicted by clique membership. The attached score is the
// 1-based clique index within the sweep.
const CliqueSignalName = "clique"

// The clique grouping's quorums, fixed like the position signal's
// thresholds.
const (
	// posQuorum is how many receivers must position-flag an identity in
	// the same sweep for it to anchor a clique conviction.
	posQuorum = 2
	// edgeQuorum is how many receivers must voiceprint-flag the same
	// identity pair for the pair to become a co-observation edge.
	edgeQuorum = 2
	// minClique is the smallest clique treated as a coordinated group.
	minClique = 2
)

// Coordinator is the cross-receiver fusion stage: it runs over one
// synchronized detection sweep (service.Server.DetectNow) and groups
// voiceprint pair evidence into co-observation cliques.
//
// The conviction rule is deliberately asymmetric. Voiceprint pair flags
// build the graph — two identities repeatedly DTW-matching at multiple
// receivers is strong same-transmitter evidence — but a clique is only
// convicted when it contains at least one identity independently
// position-flagged by posQuorum receivers. Raw voiceprint flags are
// never propagated cross-receiver on their own: a false pair match at
// one receiver would otherwise snowball into fleet-wide false
// positives. The booster also only ever flags identities the target
// receiver already considered this round, so every added suspect is
// accounted in that round's denominator.
type Coordinator struct{}

// NewCoordinator builds a Coordinator.
func NewCoordinator() *Coordinator { return &Coordinator{} }

// edge is an unordered identity pair (A < B).
type edge struct {
	a, b vanet.NodeID
}

// Coordinate implements service.RoundCoordinator. It adds convicted
// clique members to each receiver's Suspects and Signals in place and
// returns outs.
func (c *Coordinator) Coordinate(outs []service.RoundOutcome) []service.RoundOutcome {
	// Position votes: how many receivers independently position-flagged
	// each identity this sweep.
	votes := make(map[vanet.NodeID]int)
	edges := make(map[edge]int)
	for i := range outs {
		res := outs[i].Result
		if res == nil {
			continue
		}
		sids := make([]vanet.NodeID, 0, len(res.Signals))
		for id := range res.Signals {
			sids = append(sids, id)
		}
		sort.Slice(sids, func(x, y int) bool { return sids[x] < sids[y] })
		for _, id := range sids {
			if _, ok := res.Signals[id][PositionSignalName]; ok {
				votes[id]++
			}
		}
		for _, p := range res.Pairs {
			if !p.Flagged {
				continue
			}
			e := edge{a: p.A, b: p.B}
			if e.b < e.a {
				e.a, e.b = e.b, e.a
			}
			edges[e]++
		}
	}

	// Co-observation graph: edges seen by enough receivers, grouped into
	// greedy maximal cliques.
	adj := make(map[vanet.NodeID]map[vanet.NodeID]bool)
	ekeys := make([]edge, 0, len(edges))
	for e := range edges {
		ekeys = append(ekeys, e)
	}
	sort.Slice(ekeys, func(x, y int) bool {
		if ekeys[x].a != ekeys[y].a {
			return ekeys[x].a < ekeys[y].a
		}
		return ekeys[x].b < ekeys[y].b
	})
	for _, e := range ekeys {
		if edges[e] < edgeQuorum {
			continue
		}
		if adj[e.a] == nil {
			adj[e.a] = make(map[vanet.NodeID]bool)
		}
		if adj[e.b] == nil {
			adj[e.b] = make(map[vanet.NodeID]bool)
		}
		adj[e.a][e.b] = true
		adj[e.b][e.a] = true
	}
	cliques := greedyCliques(adj)

	// Conviction: a clique counts only when anchored by a
	// position-confirmed member; then every member is convicted at every
	// receiver that considered it this round.
	convicted := make(map[vanet.NodeID]float64) // id -> 1-based clique index
	for ci, clique := range cliques {
		if len(clique) < minClique {
			continue
		}
		anchored := false
		for _, id := range clique {
			if votes[id] >= posQuorum {
				anchored = true
				break
			}
		}
		if !anchored {
			continue
		}
		for _, id := range clique {
			convicted[id] = float64(ci + 1)
		}
	}
	if len(convicted) == 0 {
		return outs
	}
	cids := make([]vanet.NodeID, 0, len(convicted))
	for id := range convicted {
		cids = append(cids, id)
	}
	sort.Slice(cids, func(x, y int) bool { return cids[x] < cids[y] })

	for i := range outs {
		res := outs[i].Result
		if res == nil {
			continue
		}
		for _, id := range cids {
			if !considered(res, id) {
				continue
			}
			res.Suspects[id] = true
			if res.Signals == nil {
				res.Signals = make(map[vanet.NodeID]map[string]float64)
			}
			attr := res.Signals[id]
			if attr == nil {
				attr = make(map[string]float64, 1)
				res.Signals[id] = attr
			}
			attr[CliqueSignalName] = convicted[id]
		}
	}
	return outs
}

// considered reports whether id is in the round's (sorted) Considered
// list.
func considered(res *core.Result, id vanet.NodeID) bool {
	n := len(res.Considered)
	i := sort.Search(n, func(k int) bool { return res.Considered[k] >= id })
	return i < n && res.Considered[i] == id
}

// greedyCliques groups the graph into disjoint maximal cliques: nodes in
// descending-degree order each seed a clique extended greedily by
// neighbors adjacent to every member so far. Greedy maximal-clique is
// not exact max-clique, but Sybil co-observation graphs are near-cliques
// by construction — every pair of identities on one transmitter matches
// — so the greedy grouping recovers them whole.
func greedyCliques(adj map[vanet.NodeID]map[vanet.NodeID]bool) [][]vanet.NodeID {
	nodes := make([]vanet.NodeID, 0, len(adj))
	for id := range adj {
		nodes = append(nodes, id)
	}
	sort.Slice(nodes, func(x, y int) bool {
		dx, dy := len(adj[nodes[x]]), len(adj[nodes[y]])
		if dx != dy {
			return dx > dy
		}
		return nodes[x] < nodes[y]
	})
	used := make(map[vanet.NodeID]bool, len(nodes))
	var cliques [][]vanet.NodeID
	for _, seed := range nodes {
		if used[seed] {
			continue
		}
		clique := []vanet.NodeID{seed}
		for _, cand := range nodes {
			if used[cand] || cand == seed || !adj[seed][cand] {
				continue
			}
			ok := true
			for _, member := range clique {
				if !adj[cand][member] {
					ok = false
					break
				}
			}
			if ok {
				clique = append(clique, cand)
			}
		}
		if len(clique) < 2 {
			continue
		}
		for _, id := range clique {
			used[id] = true
		}
		sort.Slice(clique, func(x, y int) bool { return clique[x] < clique[y] })
		cliques = append(cliques, clique)
	}
	return cliques
}
