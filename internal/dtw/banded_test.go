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
// interior of if-less-than selects. It always computes every band cell,
// then applies BandedDistanceAbandon's outcome rule to the exact
// distance D: D when D/norm <= cutoff (or the cutoff is +Inf or NaN),
// else refOver(norm, cutoff) and true. With cutoff +Inf it is the
// squared-cost path BandedDistance took, and still takes for inputs
// outside kernelRange. The float64(d*d) conversions forbid fused
// multiply-adds, which amd64 never emits anyway, so the reference
// computes the amd64 bits on every architecture.
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
	}
	d := cells[offs[n-1]+m-1-w.lo[n-1]]
	if d/norm > cutoff {
		return refOver(norm, cutoff), true, nil
	}
	return d, false, nil
}

// refOver is the smallest float64 v >= 0 with v/norm > cutoff, found by
// plain bisection over the bit patterns of the non-negative floats
// (which order like the floats): the value an abandoning kernel call
// returns, computed without rawLimit's gallop.
func refOver(norm, cutoff float64) float64 {
	lo, hi := uint64(0), math.Float64bits(math.Inf(1))
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if math.Float64frombits(mid)/norm > cutoff {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Float64frombits(hi)
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
	// Two-row step shapes: n = 2 and an odd row count; m < n; a band
	// that jumps several columns a row, so row B starts past row A's
	// last full-recurrence column; cutoffs that abandon in row A or B.
	f.Add(kernelSeed(rng, 2, 9, nil), int16(1), uint8(modeSmall), uint8(0))
	f.Add(kernelSeed(rng, 2, 9, nil), int16(1), uint8(modeSmall), uint8(40))
	f.Add(kernelSeed(rng, 3, 24, nil), int16(0), uint8(modeSmall), uint8(100))
	f.Add(kernelSeed(rng, 5, 60, nil), int16(2), uint8(modeWalk), uint8(127))
	f.Add(kernelSeed(rng, 24, 5, nil), int16(2), uint8(modeSmall), uint8(90))
	f.Add(kernelSeed(rng, 9, 10, nil), int16(3), uint8(modeSmall), uint8(70))
	f.Add(kernelSeed(rng, 10, 9, nil), int16(6), uint8(modeWalk), uint8(120))
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
// on the selects pays a misprediction on most cells. Each cell's left
// neighbour is the cell before it, so one row is one dependent chain:
// stepping two rows per pass, two chains at once, took the cost from
// about 2.5 to about 1.9 ns per cell on a 2-vCPU Xeon VM.
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

// BenchmarkBandedAbandonEarly reports what a pair abandoned in its first
// row costs: an 80-sample Z-scored AR(1) pair at band radius 20 under a
// per-sample cutoff of 1e-9, which the first cell already exceeds. What
// is left is the per-call overhead: argument checks, the kernelRange scan
// and rawLimit. (A zero cutoff would time subnormal divisions instead:
// rawLimit's search for the largest v with v/80 <= 0 runs through
// subnormal quotients, which cost microseconds on x86.)
func BenchmarkBandedAbandonEarly(b *testing.B) {
	const (
		radius = 20
		cutoff = 1e-9
	)
	rng := rand.New(rand.NewSource(18))
	x, y := zAR1(rng, 80, 0.8), zAR1(rng, 80, 0.8)
	ws := NewWorkspace()
	if _, abandoned, err := ws.BandedDistanceAbandon(x, y, radius, 80, cutoff); err != nil || !abandoned {
		b.Fatalf("pair not abandoned (err %v)", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _, _ = ws.BandedDistanceAbandon(x, y, radius, 80, cutoff)
	}
}

// BenchmarkBandedPruned reports the abandoning kernel's cost per DP cell
// it actually computes (prunedCells), on BenchmarkBandedCell's pairs
// with per-sample cutoffs drawn between half and one and a half times
// each pair's exact normalized distance, so about half the pairs
// complete and half abandon. band-frac is the share of the band's cells
// computed.
func BenchmarkBandedPruned(b *testing.B) {
	const (
		pairs  = 64
		radius = 20
	)
	rng := rand.New(rand.NewSource(19))
	xs := make([][]float64, pairs)
	ys := make([][]float64, pairs)
	norms := make([]float64, pairs)
	cutoffs := make([]float64, pairs)
	cells, band := 0, 0
	ws := NewWorkspace()
	for k := range xs {
		xs[k] = zAR1(rng, 160+rng.Intn(21), 0.8)
		ys[k] = zAR1(rng, 160+rng.Intn(21), 0.8)
		norms[k] = float64(max(len(xs[k]), len(ys[k])))
		exact, err := ws.BandedDistance(xs[k], ys[k], radius)
		if err != nil {
			b.Fatal(err)
		}
		cutoffs[k] = exact / norms[k] * (0.5 + rng.Float64())
		cells += prunedCells(xs[k], ys[k], radius, rawLimit(norms[k], cutoffs[k]))
		size := sakoeChiba(len(xs[k]), len(ys[k]), radius).size()
		if all := prunedCells(xs[k], ys[k], radius, math.Inf(1)); all != size {
			b.Fatalf("prunedCells counts %d cells of an unpruned call, the band has %d", all, size)
		}
		band += size
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range xs {
			if _, _, err := ws.BandedDistanceAbandon(xs[k], ys[k], radius, norms[k], cutoffs[k]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cells), "ns/cell")
	b.ReportMetric(float64(cells)/float64(band), "band-frac")
}

// prunedCells counts the cells bandedKernel computes for x against y
// under limit, replaying its row bounds on the exact band DP: a computed
// cell is at most limit exactly when its exact value is, so the bounds
// follow from the exact values alone. Row i computes columns max(lo, ps)
// through min(hi, pe+1), then left-only cells up to and including the
// first one above limit.
func prunedCells(x, y []float64, radius int, limit float64) int {
	n, m := len(x), len(y)
	w := sakoeChiba(n, m, radius)
	inf := math.Inf(1)
	prev, cur := make([]float64, m), make([]float64, m)
	count, ps, pe := 0, 0, -1
	for i := 0; i < n; i++ {
		l, h := 0, w.hi[0]
		if i > 0 {
			l, h = max(w.lo[i], ps), min(w.hi[i], pe+1)
		}
		for j := range cur {
			cur[j] = inf
		}
		first, last := -1, -1
		for j := w.lo[i]; j <= w.hi[i]; j++ {
			best := inf
			if i == 0 && j == 0 {
				best = 0
			}
			if i > 0 {
				best = min(best, prev[j])
				if j > 0 {
					best = min(best, prev[j-1])
				}
			}
			if j > w.lo[i] {
				best = min(best, cur[j-1])
			}
			d := x[i] - y[j]
			cur[j] = best + float64(d*d)
			inRange := j >= l && j <= h
			extended := j > h && last == j-1 && last >= h
			if i == 0 {
				inRange, extended = false, j == 0 || last == j-1
			}
			if !inRange && !extended {
				continue
			}
			count++
			if cur[j] <= limit {
				if first < 0 {
					first = j
				}
				last = j
			}
		}
		if last < 0 {
			return count
		}
		ps, pe = first, last
		prev, cur = cur, prev
	}
	return count
}

// benchSink keeps benchmarked results live.
var benchSink float64

// TestBandRowsMatchesSakoeChiba checks the band stepper against
// sakoeChibaFill, the divide-per-row band it replaced, on every shape up
// to 40 by 40 at radii -1 through 9.
func TestBandRowsMatchesSakoeChiba(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for m := 1; m <= 40; m++ {
			for r := -1; r <= 9; r++ {
				want := sakoeChiba(n, m, r)
				if err := want.validate(n, m); err != nil {
					t.Fatalf("n=%d m=%d r=%d: reference band invalid: %v", n, m, r, err)
				}
				b := newBandRows(n, m, r)
				for i := 0; i < n; i++ {
					if i > 0 {
						b.next()
					}
					if b.lo != want.lo[i] || b.hi != want.hi[i] {
						t.Fatalf("n=%d m=%d r=%d row %d: stepped [%d,%d], reference [%d,%d]",
							n, m, r, i, b.lo, b.hi, want.lo[i], want.hi[i])
					}
				}
			}
		}
	}
}

// bandCells returns the exact squared-cost DP over the Sakoe-Chiba band
// of radius r, row by row, with +Inf outside the band: each cell is the
// smallest of its up, diagonal and left neighbours plus the squared
// difference.
func bandCells(x, y []float64, r int) [][]float64 {
	w := sakoeChiba(len(x), len(y), r)
	inf := math.Inf(1)
	cells := make([][]float64, len(x))
	for i := range cells {
		cells[i] = make([]float64, len(y))
		for j := range cells[i] {
			cells[i][j] = inf
			if j < w.lo[i] || j > w.hi[i] {
				continue
			}
			best := inf
			if i == 0 && j == 0 {
				best = 0
			}
			if i > 0 {
				best = min(best, cells[i-1][j])
				if j > 0 {
					best = min(best, cells[i-1][j-1])
				}
			}
			if j > 0 {
				best = min(best, cells[i][j-1])
			}
			d := x[i] - y[j]
			cells[i][j] = best + float64(d*d)
		}
	}
	return cells
}

// Two-row step cases twoRowCases tells apart; the exhaustive test
// requires each of them.
const (
	caseBStartsPastA  = iota // row B's band starts past row A's last full-recurrence column
	caseAEdgeBeforeH         // row A's right edge ends before its full-recurrence end
	caseBPastItsRange        // row B's interleaved cells run past its own range
	caseAbandonA             // the pair abandons in row A of a pass
	caseAbandonB             // the pair abandons in row B of a pass
	caseOddLastRow           // the last row runs alone
	numTwoRowCases
)

// twoRowCases replays bandedKernel's passes on the exact DP cells under
// limit and marks which cases occur. A row's edges are its first and
// last cells at most limit: no cell the kernel leaves out is.
func twoRowCases(cells [][]float64, n, m, r int, limit float64, seen *[numTwoRowCases]int) {
	edges := func(row []float64) (int, int) {
		ps, pe := -1, -2
		for j, v := range row {
			if v <= limit {
				if ps < 0 {
					ps = j
				}
				pe = j
			}
		}
		return ps, pe
	}
	ps, pe := edges(cells[0])
	if pe < ps {
		return
	}
	band := newBandRows(n, m, r)
	for i := 1; i < n; i += 2 {
		band.next()
		l, h := max(band.lo, ps), min(band.hi, pe+1)
		if i+1 == n {
			seen[caseOddLastRow]++
			return
		}
		band.next()
		psA, peA := edges(cells[i])
		if l > h || peA < psA {
			seen[caseAbandonA]++
			return
		}
		if band.lo > h {
			seen[caseBStartsPastA]++
		}
		if peA < h {
			seen[caseAEdgeBeforeH]++
		}
		if min(band.hi, peA+1) < h-1 && max(band.lo, l) < h {
			seen[caseBPastItsRange]++
		}
		if ps, pe = edges(cells[i+1]); pe < ps {
			seen[caseAbandonB]++
			return
		}
	}
}

// TestBandedKernelExhaustive checks the two-row kernel against refBanded
// bit for bit on every shape n, m <= 24 at radii 0 through 6, under
// limit +Inf and under each exact cell value of the pair and its two ulp
// neighbours, so every row bound the kernel derives falls on, just
// below and just above a cell. The outcome must be refBanded's exact
// distance D when D <= limit, and otherwise Nextafter(limit, +Inf) with
// abandoned set. Values come from a five-letter alphabet, so ties
// between neighbours are common. It also requires that the shapes cover
// every two-row case (twoRowCases).
func TestBandedKernelExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	inf := math.Inf(1)
	ws := NewWorkspace()
	var seen [numTwoRowCases]int
	series := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(rng.Intn(5)-2) / 2
		}
		return s
	}
	for n := 1; n <= 24; n++ {
		for m := 1; m <= 24; m++ {
			for r := 0; r <= 6; r++ {
				x, y := series(n), series(m)
				want, _, err := refBanded(x, y, r, 1, inf)
				if err != nil {
					t.Fatalf("n=%d m=%d r=%d: reference: %v", n, m, r, err)
				}
				cells := bandCells(x, y, r)
				limits := []float64{inf}
				for _, row := range cells {
					for _, v := range row {
						if v < inf {
							limits = append(limits, math.Nextafter(v, -1), v, math.Nextafter(v, inf))
						}
					}
				}
				for _, limit := range limits {
					got, abandoned, err := ws.banded(x, y, r, limit)
					wantV, wantAbandoned := want, false
					if want > limit {
						wantV, wantAbandoned = math.Nextafter(limit, inf), true
					}
					if err != nil || math.Float64bits(got) != math.Float64bits(wantV) || abandoned != wantAbandoned {
						t.Fatalf("n=%d m=%d r=%d limit=%v: kernel (%v, %v, %v), want (%v, %v); x=%v y=%v",
							n, m, r, limit, got, abandoned, err, wantV, wantAbandoned, x, y)
					}
					twoRowCases(cells, n, m, r, limit, &seen)
				}
			}
		}
	}
	for c, k := range seen {
		if k == 0 {
			t.Errorf("two-row case %d never occurred", c)
		}
	}
	t.Logf("two-row cases (b-starts-past-a, a-edge-before-h, b-past-range, abandon-a, abandon-b, odd-last-row): %v", seen)
}
