package dtw

import (
	"math"
	"math/rand"
	"testing"
)

// decodeSeries splits fuzz bytes into two non-empty series of small
// float values (int8 → dBm-ish range).
func decodeSeries(data []byte) (x, y []float64) {
	if len(data) < 2 {
		return nil, nil
	}
	half := 1 + int(data[0])%(len(data)-1)
	for _, b := range data[1 : 1+half] {
		x = append(x, float64(int8(b))/4)
	}
	for _, b := range data[1+half:] {
		y = append(y, float64(int8(b))/4)
	}
	return x, y
}

// FuzzFastDistanceBounds checks the contracts the detector's
// BandRadius < 0 ablation leans on: FastDistance never undercuts the
// exact DTW distance (its window restricts the path set, and windowed DP
// cell values dominate the full DP's cell values under floating point
// too); the iterative pyramid returns the same bits as the recursive
// FastDTW it unrolls; and pooled workspaces are invisible — a dirty
// reused workspace returns bit-identical distances to a fresh one.
func FuzzFastDistanceBounds(f *testing.F) {
	f.Add([]byte{4, 1, 2, 3, 4, 250, 251, 3, 9}, 1)
	f.Add([]byte{1, 0, 0}, 0)
	f.Add([]byte{20, 7, 7, 7, 7, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 200, 100, 50}, 3)
	// Long enough for a multi-level pyramid.
	rng := rand.New(rand.NewSource(20))
	f.Add(kernelSeed(rng, 60, 50, nil), 1)
	f.Add(kernelSeed(rng, 37, 64, nil), 0)
	f.Fuzz(func(t *testing.T, data []byte, radius int) {
		x, y := decodeSeries(data)
		if len(x) == 0 || len(y) == 0 {
			t.Skip()
		}
		radius = ((radius % 6) + 6) % 6
		exact, err := Distance(x, y)
		if err != nil {
			t.Fatalf("Distance: %v", err)
		}
		fast, err := FastDistance(x, y, radius)
		if err != nil {
			t.Fatalf("FastDistance: %v", err)
		}
		if math.IsNaN(fast) || math.IsInf(fast, 0) {
			t.Fatalf("FastDistance(%v, %v, %d) = %v", x, y, radius, fast)
		}
		if fast < exact {
			t.Fatalf("FastDistance %x undercuts exact distance %x (n=%d m=%d radius=%d)",
				fast, exact, len(x), len(y), radius)
		}
		rec, _, err := fastDTW(x, y, radius)
		if err != nil {
			t.Fatalf("recursive FastDTW: %v", err)
		}
		if math.Float64bits(fast) != math.Float64bits(rec) {
			t.Fatalf("FastDistance %x != recursive FastDTW %x (n=%d m=%d radius=%d)",
				fast, rec, len(x), len(y), radius)
		}
		// Pooled vs fresh vs dirty: all three must agree bit for bit.
		fresh := NewWorkspace()
		d1, err := fresh.FastDistance(x, y, radius)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := fresh.FastDistance(y, x, radius) // dirty the buffers
		if err != nil {
			t.Fatal(err)
		}
		d3, err := fresh.FastDistance(x, y, radius)
		if err != nil {
			t.Fatal(err)
		}
		if d1 != fast || d3 != fast {
			t.Fatalf("workspace reuse drifted: pooled=%x fresh=%x dirty=%x", fast, d1, d3)
		}
		e2, err := Distance(y, x)
		if err != nil {
			t.Fatal(err)
		}
		if d2 < e2 {
			t.Fatalf("swapped FastDistance %x undercuts exact %x", d2, e2)
		}
	})
}

// FuzzBandPathUpperBound fuzzes the contracts the compare-phase
// pruning stands on: the staircase upper bound never undercuts the
// banded distance and returns the same bits as refUpperBound, the
// divide-per-row bound it replaced, and the rolling-row banded kernel
// stays bit-identical to refBanded, the kernel it replaced.
func FuzzBandPathUpperBound(f *testing.F) {
	f.Add([]byte{4, 1, 2, 3, 4, 250, 251, 3, 9}, 1)
	f.Add([]byte{1, 0, 0}, 0)
	f.Add([]byte{9, 200, 100, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 2)
	f.Add([]byte{20, 7, 7, 7, 7, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 200, 100, 50}, 5)
	f.Add([]byte{2, 128, 127, 128, 127, 0, 255}, 3)
	f.Fuzz(func(t *testing.T, data []byte, radius int) {
		x, y := decodeSeries(data)
		if len(x) == 0 || len(y) == 0 {
			t.Skip()
		}
		radius = ((radius % 8) + 8) % 8
		ws := NewWorkspace()
		banded, err := ws.BandedDistance(x, y, radius)
		if err != nil {
			t.Fatalf("BandedDistance: %v", err)
		}
		ref, _, err := refBanded(x, y, radius, 1, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(banded) != math.Float64bits(ref) {
			t.Fatalf("banded kernel %x != reference %x (n=%d m=%d r=%d)",
				banded, ref, len(x), len(y), radius)
		}
		ub, err := BandPathUpperBound(x, y, radius)
		if err != nil {
			t.Fatal(err)
		}
		if ub < banded {
			t.Fatalf("upper bound %x undercuts banded %x (n=%d m=%d r=%d)", ub, banded, len(x), len(y), radius)
		}
		refUB, err := refUpperBound(x, y, radius)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(ub) != math.Float64bits(refUB) {
			t.Fatalf("upper bound %x != reference %x (n=%d m=%d r=%d)", ub, refUB, len(x), len(y), radius)
		}
	})
}
