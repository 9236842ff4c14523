package main

import (
	"math/rand"
	"testing"

	"voiceprint/internal/vanet"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{n: 0, want: 0},
		{n: 19, want: 0},
		{n: 20, want: 50},
		{n: 60, want: 83},
		{n: 192, want: 94},
		{n: 240, want: 95},
		{n: 384, want: 97},
		{n: 100000, want: 99},
	} {
		p := tailPercentile(tc.n)
		if p != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, p, tc.want)
		}
		if p == 0 {
			continue
		}
		// The rule itself: at least ten samples beyond p, fewer beyond p+1.
		if beyond := tc.n - rank(p, tc.n); beyond < minBeyond {
			t.Errorf("n=%d: p%d has %d samples beyond it", tc.n, p, beyond)
		}
		if p < 99 && tc.n-rank(p+1, tc.n) >= minBeyond {
			t.Errorf("n=%d: p%d also has %d samples beyond it", tc.n, p+1, tc.n-rank(p+1, tc.n))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, tc := range []struct {
		p    int
		want float64
	}{{50, 50}, {90, 90}, {95, 95}, {99, 99}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%d = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 97); got != 7 {
		t.Errorf("single sample p97 = %v, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestRoundDigestsIgnoreArrivalOrder(t *testing.T) {
	vs := []verdict{
		{Round: 0, Recv: 901, TMs: 20000, Suspects: []vanet.NodeID{3, 1}, Confirmed: nil},
		{Round: 0, Recv: 902, TMs: 20000, Suspects: []vanet.NodeID{}, Confirmed: []vanet.NodeID{7}},
		{Round: 1, Recv: 901, TMs: 40000, Suspects: []vanet.NodeID{1, 3}, Confirmed: []vanet.NodeID{1, 3}},
		{Round: 1, Recv: 902, TMs: 40000, Suspects: []vanet.NodeID{7}, Confirmed: []vanet.NodeID{7}},
	}
	want := roundDigests(vs, 2)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		shuffled := make([]verdict, len(vs))
		for i, j := range rng.Perm(len(vs)) {
			v := vs[j]
			v.Suspects = append([]vanet.NodeID(nil), v.Suspects...)
			rng.Shuffle(len(v.Suspects), func(a, b int) { v.Suspects[a], v.Suspects[b] = v.Suspects[b], v.Suspects[a] })
			shuffled[i] = v
		}
		got := roundDigests(shuffled, 2)
		if got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("digest changed with arrival order: %v vs %v", got, want)
		}
	}
	changed := append([]verdict(nil), vs...)
	changed[3].Confirmed = nil
	got := roundDigests(changed, 2)
	if got[0] != want[0] {
		t.Errorf("round 0 digest changed by a round 1 edit")
	}
	if got[1] == want[1] {
		t.Errorf("round 1 digest ignored a dropped confirmation")
	}
}
