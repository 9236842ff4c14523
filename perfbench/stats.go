package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"voiceprint/internal/vanet"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailPercentile returns the highest whole percentile in [50, 99] that
// still has at least minBeyond of n samples beyond it under the
// nearest-rank rule (see percentile), or 0 when n is too small for even
// the median to qualify.
func tailPercentile(n int) int {
	for p := 99; p >= 50; p-- {
		if n-rank(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples: ceil(p·n/100), at least 1.
func rank(p, n int) int {
	k := (p*n + 99) / 100
	if k < 1 {
		k = 1
	}
	return k
}

// percentile returns the nearest-rank p-th percentile of xs (which it
// sorts in place); 0 for an empty slice.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(p, len(xs))-1]
}

// median returns the median of xs without reordering it; 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// round4 quantizes a rate to 4 decimals, as the committed scorecards do.
func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

// verdict is one receiver's outcome at one boundary: what a subscriber
// learns from the verdict event.
type verdict struct {
	Round     int
	Recv      vanet.NodeID
	TMs       int64
	Suspects  []vanet.NodeID
	Confirmed []vanet.NodeID
}

// roundDigests hashes the verdicts of each round (suspects plus
// confirmed, per receiver) into one short hex digest per round. The
// digest depends only on the set of verdicts: receivers and identity
// lists are sorted first, so event arrival order cannot change it.
func roundDigests(vs []verdict, rounds int) []string {
	byRound := make([][]verdict, rounds)
	for _, v := range vs {
		if v.Round >= 0 && v.Round < rounds {
			byRound[v.Round] = append(byRound[v.Round], v)
		}
	}
	out := make([]string, rounds)
	for r, group := range byRound {
		sort.Slice(group, func(i, j int) bool { return group[i].Recv < group[j].Recv })
		var b strings.Builder
		for _, v := range group {
			fmt.Fprintf(&b, "%d@%d|%s|%s\n", v.Recv, v.TMs, idList(v.Suspects), idList(v.Confirmed))
		}
		sum := sha256.Sum256([]byte(b.String()))
		out[r] = hex.EncodeToString(sum[:8])
	}
	return out
}

// idList renders identities ascending, comma-separated.
func idList(ids []vanet.NodeID) string {
	s := slices.Clone(ids)
	slices.Sort(s)
	parts := make([]string, len(s))
	for i, id := range s {
		parts[i] = fmt.Sprint(uint64(id))
	}
	return strings.Join(parts, ",")
}
