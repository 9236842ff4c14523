package dtw

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refBanded is the row-major, branchy banded kernel the rolling-row
// kernel replaced, kept as the reference it must match bit for bit: a
// Sakoe-Chiba band over a cell backing of n×(band width) floats, each
// row split into bounds-checked head and tail cells (refCell) around an
// interior of if-less-than selects, with the abandon scan after every
// abandonStride-th interior row. With cutoff +Inf it is the squared-cost
// path BandedDistance took, and still takes for inputs outside
// kernelRange. The float64(d*d) conversions forbid fused multiply-adds,
// which amd64 never emits anyway, so the reference computes the amd64
// bits on every architecture.
func refBanded(x, y []float64, radius int, norm, cutoff float64) (float64, bool, error) {
	if len(x) == 0 || len(y) == 0 {
		return 0, false, ErrEmptySeries
	}
	n, m := len(x), len(y)
	w := sakoeChiba(n, m, radius)
	if err := w.validate(n, m); err != nil {
		return 0, false, err
	}
	offs := make([]int, n)
	size := 0
	for i := 0; i < n; i++ {
		offs[i] = size
		size += w.hi[i] - w.lo[i] + 1
	}
	cells := make([]float64, size)
	checking := !math.IsInf(cutoff, 1)
	for i := 0; i < n; i++ {
		lo, hi := w.lo[i], w.hi[i]
		row := cells[offs[i] : offs[i]+hi-lo+1]
		xi := x[i]
		if i == 0 {
			d := xi - y[0]
			row[0] = d * d
			for j := lo + 1; j <= hi; j++ {
				d = xi - y[j]
				row[j-lo] = row[j-1-lo] + float64(d*d)
			}
		} else {
			plo, phi := w.lo[i-1], w.hi[i-1]
			prevRow := cells[offs[i-1] : offs[i-1]+phi-plo+1]
			j := lo
			for ; j <= hi && (j == lo || j <= plo); j++ {
				v, ok := refCell(row, prevRow, lo, plo, j, xi, y[j])
				if !ok {
					return 0, false, fmt.Errorf("dtw: window disconnected at cell (%d,%d)", i, j)
				}
				row[j-lo] = v
			}
			kend := hi
			if kend > phi {
				kend = phi
			}
			for ; j <= kend; j++ {
				best := prevRow[j-plo]
				if v := prevRow[j-1-plo]; v < best {
					best = v
				}
				if v := row[j-1-lo]; v < best {
					best = v
				}
				d := xi - y[j]
				row[j-lo] = best + float64(d*d)
			}
			for ; j <= hi; j++ {
				v, ok := refCell(row, prevRow, lo, plo, j, xi, y[j])
				if !ok {
					return 0, false, fmt.Errorf("dtw: window disconnected at cell (%d,%d)", i, j)
				}
				row[j-lo] = v
			}
		}
		if checking && i < n-1 && (i+1)%abandonStride == 0 {
			rowMin := row[0]
			for _, v := range row[1:] {
				if v < rowMin {
					rowMin = v
				}
			}
			if rowMin/norm > cutoff {
				return rowMin, true, nil
			}
		}
	}
	return cells[offs[n-1]+m-1-w.lo[n-1]], false, nil
}

// refCell is sqCell as refBanded's head and tail cells used it: one
// squared-cost cell with full bounds checks, predecessors taken up,
// diagonal, left by strict <, and ok false when none is reachable.
func refCell(row, prevRow []float64, lo, plo, j int, xi, yj float64) (float64, bool) {
	best := math.Inf(1)
	if prevRow != nil {
		if k := j - plo; k >= 0 && k < len(prevRow) {
			if v := prevRow[k]; v < best {
				best = v
			}
		}
		if k := j - 1 - plo; k >= 0 && k < len(prevRow) {
			if v := prevRow[k]; v < best {
				best = v
			}
		}
	}
	if j-1 >= lo {
		if v := row[j-1-lo]; v < best {
			best = v
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	d := xi - yj
	return best + float64(d*d), true
}

// Fuzz input modes: how decodeKernelSeries turns bytes into values.
const (
	modeSmall  = iota // int8/4: the detector's z-scored range and beyond
	modeHuge          // int8·1e153: DP values overflow to +Inf
	modeNonFin        // int8/4 with -128 → NaN, 127 → +Inf, -127 → -Inf
	modeWalk          // random walk of int8/16 steps: predictable selects
	numModes
)

// decodeKernelSeries splits fuzz bytes into two series of 1…200 samples:
// data[0] picks the split, the rest are samples decoded per mode.
func decodeKernelSeries(data []byte, mode uint8) (x, y []float64) {
	if len(data) < 3 {
		return nil, nil
	}
	body := data[1:]
	if len(body) > 400 {
		body = body[:400]
	}
	n := 1 + int(data[0])%min(len(body)-1, 200)
	yb := body[n:]
	if len(yb) > 200 {
		yb = yb[:200]
	}
	decode := func(bs []byte) []float64 {
		s := make([]float64, len(bs))
		walk := 0.0
		for i, b := range bs {
			v := float64(int8(b))
			switch mode % numModes {
			case modeSmall:
				s[i] = v / 4
			case modeHuge:
				s[i] = v * 1e153
			case modeNonFin:
				switch int8(b) {
				case -128:
					s[i] = math.NaN()
				case 127:
					s[i] = math.Inf(1)
				case -127:
					s[i] = math.Inf(-1)
				default:
					s[i] = v / 4
				}
			case modeWalk:
				walk += v / 16
				s[i] = walk
			}
		}
		return s
	}
	return decode(body[:n]), decode(yb)
}

// kernelSeed builds a fuzz seed of n+m samples that decodes to series of
// lengths n and m (1 <= n, m <= 200).
func kernelSeed(rng *rand.Rand, n, m int, fill func(int) byte) []byte {
	data := []byte{byte(n - 1)}
	for i := 0; i < n+m; i++ {
		b := byte(rng.Intn(256))
		if fill != nil {
			b = fill(i)
		}
		data = append(data, b)
	}
	return data
}

// FuzzBandedKernel checks the rolling-row kernel behind BandedDistance
// and BandedDistanceAbandon against refBanded, the kernel it replaced:
// the same distance or abandon bound by math.Float64bits, the same
// abandoned flag, and the same error outcome, on a dirty workspace.
// Inputs outside kernelRange (NaN, ±Inf, overflowing values) must
// return the reference BandedDistance result and never abandon; inputs
// inside it must never overflow. cut 0 means cutoff +Inf; otherwise the
// cutoff is the exact normalized distance scaled by cut/128, so it lands
// below, at or above the distance.
func FuzzBandedKernel(f *testing.F) {
	rng := rand.New(rand.NewSource(18))
	f.Add([]byte{0, 5, 9}, int16(0), uint8(modeSmall), uint8(0))
	f.Add([]byte{3, 1, 2, 3, 4, 250, 251, 3, 9}, int16(-3), uint8(modeSmall), uint8(64))
	f.Add([]byte{9, 200, 100, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, int16(2), uint8(modeWalk), uint8(200))
	f.Add(kernelSeed(rng, 170, 180, nil), int16(20), uint8(modeSmall), uint8(0))
	f.Add(kernelSeed(rng, 170, 180, nil), int16(20), uint8(modeSmall), uint8(60))
	f.Add(kernelSeed(rng, 180, 160, nil), int16(20), uint8(modeWalk), uint8(120))
	f.Add(kernelSeed(rng, 200, 200, nil), int16(20), uint8(modeSmall), uint8(129))
	f.Add(kernelSeed(rng, 1, 200, nil), int16(5), uint8(modeSmall), uint8(0))
	f.Add(kernelSeed(rng, 200, 1, nil), int16(5), uint8(modeSmall), uint8(30))
	f.Add(kernelSeed(rng, 40, 12, nil), int16(500), uint8(modeSmall), uint8(100))
	f.Add(kernelSeed(rng, 12, 40, nil), int16(12), uint8(modeWalk), uint8(90))
	f.Add(kernelSeed(rng, 60, 50, nil), int16(-1), uint8(modeWalk), uint8(110))
	f.Add(kernelSeed(rng, 30, 33, nil), int16(4), uint8(modeHuge), uint8(0))
	f.Add(kernelSeed(rng, 30, 33, nil), int16(4), uint8(modeHuge), uint8(50))
	f.Add(kernelSeed(rng, 8, 9, func(i int) byte { return byte(i % 3) }), int16(2), uint8(modeHuge), uint8(100))
	f.Add([]byte{1, 1, 2, 2, 1}, int16(1), uint8(modeHuge), uint8(0))
	f.Add([]byte{0, 0x80, 4}, int16(0), uint8(modeNonFin), uint8(0))
	f.Add(kernelSeed(rng, 25, 20, nil), int16(3), uint8(modeNonFin), uint8(0))
	f.Add(kernelSeed(rng, 25, 20, func(i int) byte { return []byte{0x80, 0x7f, 0x81, 4}[i%4] }), int16(3), uint8(modeNonFin), uint8(64))
	f.Fuzz(func(t *testing.T, data []byte, radius16 int16, mode, cut uint8) {
		x, y := decodeKernelSeries(data, mode)
		if len(x) == 0 || len(y) == 0 {
			t.Skip()
		}
		radius := int(radius16)
		norm := float64(max(len(x), len(y)))
		want, _, wantErr := refBanded(x, y, radius, 1, math.Inf(1))
		ws := NewWorkspace()
		// Dirty the rolling rows and band scratch with a swapped pair.
		_, _ = ws.BandedDistance(y, x, radius)
		_, _, _ = ws.BandedDistanceAbandon(y, x, radius, norm, 0)

		got, err := ws.BandedDistance(x, y, radius)
		sameOutcome(t, "BandedDistance", got, false, err, want, false, wantErr)

		cutoff := math.Inf(1)
		if cut != 0 {
			cutoff = want / norm * float64(cut) / 128
		}
		got, abandoned, err := ws.BandedDistanceAbandon(x, y, radius, norm, cutoff)
		if !kernelRange(x, y) {
			sameOutcome(t, "BandedDistanceAbandon outside kernelRange", got, abandoned, err, want, false, wantErr)
			return
		}
		if wantErr != nil || math.IsInf(want, 0) || math.IsNaN(want) {
			t.Fatalf("input inside kernelRange overflowed: reference (%v, %v)", want, wantErr)
		}
		refA, refAbandoned, refErr := refBanded(x, y, radius, norm, cutoff)
		sameOutcome(t, "BandedDistanceAbandon", got, abandoned, err, refA, refAbandoned, refErr)
	})
}

// sameOutcome fails unless (got, abandoned, err) matches the reference
// bit for bit: same error-or-not, and on success the same Float64bits
// and abandoned flag.
func sameOutcome(t *testing.T, what string, got float64, abandoned bool, err error, want float64, wantAbandoned bool, wantErr error) {
	t.Helper()
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, reference error %v", what, err, wantErr)
	}
	if err != nil {
		return
	}
	if math.Float64bits(got) != math.Float64bits(want) || abandoned != wantAbandoned {
		t.Fatalf("%s = (%v %#x, %v), reference (%v %#x, %v)",
			what, got, math.Float64bits(got), abandoned, want, math.Float64bits(want), wantAbandoned)
	}
}

// zAR1 draws an AR(1) series s_t = rho·s_{t-1} + N(0,1) of n samples and
// Z-scores it (Eq 7), the shape the detector hands the banded kernel.
func zAR1(rng *rand.Rand, n int, rho float64) []float64 {
	s := make([]float64, n)
	v := rng.NormFloat64()
	mean := 0.0
	for i := range s {
		v = rho*v + rng.NormFloat64()
		s[i] = v
		mean += v
	}
	mean /= float64(n)
	sd := 0.0
	for _, v := range s {
		sd += (v - mean) * (v - mean)
	}
	sd = math.Sqrt(sd / float64(n))
	for i := range s {
		s[i] = (s[i] - mean) / sd
	}
	return s
}

// BenchmarkBandedCell reports the banded kernel's cost per DP cell on
// pairs shaped like the detector's: Z-scored AR(1) series of 160-180
// samples at band radius 20. On such inputs which of up, diagonal and
// left is smallest is close to a coin flip, so a kernel that branches
// on the selects pays a misprediction on most cells.
func BenchmarkBandedCell(b *testing.B) {
	const (
		pairs  = 64
		radius = 20
	)
	rng := rand.New(rand.NewSource(18))
	xs := make([][]float64, pairs)
	ys := make([][]float64, pairs)
	cells := 0
	for k := range xs {
		xs[k] = zAR1(rng, 160+rng.Intn(21), 0.8)
		ys[k] = zAR1(rng, 160+rng.Intn(21), 0.8)
		cells += sakoeChiba(len(xs[k]), len(ys[k]), radius).size()
	}
	ws := NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range xs {
			if _, err := ws.BandedDistance(xs[k], ys[k], radius); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cells), "ns/cell")
}
