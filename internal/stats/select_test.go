package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sameQuantile reports whether QuantileInPlace's value matches
// Quantile's: both NaN, or equal by ==. Where an unstable sort leaves a
// zero's sign unspecified, -0 and +0 compare equal.
func sameQuantile(got, want float64) bool {
	if math.IsNaN(want) || math.IsNaN(got) {
		return math.IsNaN(want) && math.IsNaN(got)
	}
	return got == want
}

// checkQuantileInPlace runs QuantileInPlace on a copy of xs and fails
// unless it matches the sort-based Quantile, leaves a permutation of xs
// behind, and partitions it around the selected order statistic.
func checkQuantileInPlace(t *testing.T, xs []float64, q float64) {
	t.Helper()
	want, wantErr := Quantile(xs, q)
	work := append([]float64(nil), xs...)
	got, err := QuantileInPlace(work, q)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("n=%d q=%v: error %v, Quantile error %v", len(xs), q, err, wantErr)
	}
	if err != nil {
		return
	}
	if !sameQuantile(got, want) {
		t.Fatalf("n=%d q=%v: QuantileInPlace = %v, Quantile = %v (input %v)", len(xs), q, got, want, xs)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	reordered := append([]float64(nil), work...)
	sort.Float64s(reordered)
	for i := range sorted {
		if !sameQuantile(reordered[i], sorted[i]) {
			t.Fatalf("n=%d q=%v: result is not a permutation of the input", len(xs), q)
		}
	}
	if len(xs) < 2 {
		return
	}
	k := int(math.Floor(q * float64(len(xs)-1)))
	less := sort.Float64Slice(work).Less
	for i := range work {
		if (i < k && less(k, i)) || (i > k && less(i, k)) {
			t.Fatalf("n=%d q=%v: index %d (%v) is on the wrong side of index %d (%v)", len(xs), q, i, work[i], k, work[k])
		}
	}
}

// quantileGrid is the q values every sample is checked at, beside each
// exact order-statistic position.
var quantileGrid = []float64{0, 0.01, 0.1, 0.25, 1.0 / 3, 0.5, 2.0 / 3, 0.75, 0.9, 0.99, 1}

func TestQuantileInPlaceMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	gens := map[string]func(i, n int) float64{
		"uniform":    func(int, int) float64 { return rng.Float64()*60 - 90 },
		"duplicates": func(int, int) float64 { return float64(rng.Intn(4)) },
		"all-equal":  func(int, int) float64 { return -71 },
		"ascending":  func(i, _ int) float64 { return float64(i) },
		"descending": func(i, n int) float64 { return float64(n - i) },
		"organ-pipe": func(i, n int) float64 { return float64(min(i, n-1-i)) },
		"specials":   func(int, int) float64 { return specials[rng.Intn(len(specials))] },
		"some-nan": func(int, int) float64 {
			if rng.Intn(5) == 0 {
				return math.NaN()
			}
			return float64(rng.Intn(9))
		},
	}
	for name, gen := range gens {
		for _, n := range []int{1, 2, 3, 4, 5, 11, 12, 13, 14, 25, 64, 101, 200, 999} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = gen(i, n)
			}
			t.Run(name, func(t *testing.T) {
				for _, q := range quantileGrid {
					checkQuantileInPlace(t, xs, q)
				}
				for k := 0; k < n && n > 1; k++ {
					checkQuantileInPlace(t, xs, float64(k)/float64(n-1))
				}
			})
		}
	}
}

// FuzzQuantileInPlace checks QuantileInPlace against the sort-based
// Quantile on arbitrary samples: each byte is a value of a small
// alphabet (so duplicates are common) with NaN, ±Inf and -0 among them,
// and qn/65535 is the quantile.
func FuzzQuantileInPlace(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint16(32768))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9}, uint16(65535))
	f.Add([]byte{250, 1, 251, 2, 252, 3, 253, 4, 254, 5, 255, 6, 7, 8, 9}, uint16(0))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 40}, uint16(21845))
	f.Fuzz(func(t *testing.T, data []byte, qn uint16) {
		xs := make([]float64, len(data))
		for i, b := range data {
			switch b {
			case 255:
				xs[i] = math.NaN()
			case 254:
				xs[i] = math.Inf(1)
			case 253:
				xs[i] = math.Inf(-1)
			case 252:
				xs[i] = math.Copysign(0, -1)
			default:
				xs[i] = float64(int8(b)) / 4
			}
		}
		checkQuantileInPlace(t, xs, float64(qn)/65535)
	})
}

// TestQuickselectSortFallback runs quickselect with its partition budget
// spent at once and after one partition, where it sorts the range it is
// left with, against sort.Float64s.
func TestQuickselectSortFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, budget := range []int{0, 1} {
		for _, n := range []int{13, 40, 200} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(rng.Intn(n / 2))
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for k := range xs {
				work := append([]float64(nil), xs...)
				if got := quickselect(work, k, budget); got != sorted[k] {
					t.Fatalf("budget %d n=%d k=%d: quickselect = %v, sorted %v", budget, n, k, got, sorted[k])
				}
			}
		}
	}
}
