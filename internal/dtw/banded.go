package dtw

import (
	"fmt"
	"math"
)

// abandonStride is how often BandedDistanceAbandon scans a completed DP
// row for its minimum. The scan costs about as much as computing the row,
// so checking every row would tax pairs that never abandon; a fixed
// stride caps that overhead at 1/abandonStride while delaying an abandon
// by at most abandonStride-1 rows. It is a compile-time constant so
// abandoned bounds stay a deterministic function of the inputs.
const abandonStride = 4

// BandedDistance computes DTW under a Sakoe-Chiba band of the given
// radius, building the band in workspace scratch (no allocation) and
// running the rolling-row banded kernel over it.
func (ws *Workspace) BandedDistance(x, y []float64, radius int) (float64, error) {
	d, _, err := ws.banded(x, y, radius, 1, math.Inf(1))
	return d, err
}

// BandedDistanceAbandon computes the same Sakoe-Chiba banded squared-cost
// DTW distance as BandedDistance, but gives up early when the distance
// provably exceeds cutoff: every cell cost is non-negative, so the
// minimum over a completed DP row is a lower bound on every later row
// and on the final distance. After every abandonStride-th interior row
// the normalized bound rowMin/norm is compared against cutoff with
// exactly the division the caller uses to normalize distances; once it
// exceeds cutoff the final distance must too, and the scan stops.
//
// On abandon it returns (rowMin, true, nil) where rowMin is the
// accumulated (unnormalized) row minimum — an admissible lower bound on
// the exact banded distance. When the scan completes it returns the
// exact distance, bit-identical to BandedDistance: both run the same
// kernel, and the row-min scan never touches cell arithmetic. The last
// row is never checked — at that point the exact distance is already
// paid for. Inputs outside the kernel's range (see kernelRange: NaN,
// ±Inf, or values large enough to overflow a DP cell) are never
// abandoned; the scan completes and returns BandedDistance's result.
//
// The result is a pure function of (x, y, radius, norm, cutoff): it does
// not depend on which workspace runs the pair or what that workspace ran
// before.
func (ws *Workspace) BandedDistanceAbandon(x, y []float64, radius int, norm, cutoff float64) (float64, bool, error) {
	if len(x) == 0 || len(y) == 0 {
		return 0, false, ErrEmptySeries
	}
	if !(norm > 0) {
		return 0, false, fmt.Errorf("dtw: abandon norm must be positive, got %v", norm)
	}
	return ws.banded(x, y, radius, norm, cutoff)
}

// band builds the Sakoe-Chiba window of x against y in workspace scratch
// and validates it.
func (ws *Workspace) band(x, y []float64, radius int) error {
	if len(x) == 0 || len(y) == 0 {
		return ErrEmptySeries
	}
	n := len(x)
	ws.winLo = growInt(ws.winLo, n)
	ws.winHi = growInt(ws.winHi, n)
	ws.win.lo, ws.win.hi = ws.winLo, ws.winHi
	sakoeChibaFill(&ws.win, len(y), radius)
	return ws.win.validate(n, len(y))
}

// banded is the squared-cost banded DP behind BandedDistance and
// BandedDistanceAbandon; cutoff +Inf turns abandoning off. Inputs the
// kernel cannot take exactly go to the windowed DP, never abandoned.
func (ws *Workspace) banded(x, y []float64, radius int, norm, cutoff float64) (float64, bool, error) {
	if err := ws.band(x, y, radius); err != nil {
		return 0, false, err
	}
	if !kernelRange(x, y) {
		d, _, err := ws.constrained(x, y, &ws.win, false, nil)
		return d, false, err
	}
	m := len(y)
	ws.prev = growF64(ws.prev, m+1)
	ws.cur = growF64(ws.cur, m+1)
	d, abandoned := bandedKernel(ws.prev, ws.cur, x, y, ws.win.lo, ws.win.hi, norm, cutoff)
	return d, abandoned, nil
}

// kernelRange reports whether bandedKernel computes x against y exactly:
// every value is finite and small enough that no DP cell can overflow.
// A warp path has at most n+m-1 cells, each costing at most (2·lim)², so
// with lim² = MaxFloat64/(8(n+m)) every accumulated cost stays below
// MaxFloat64/2. The scan is O(n+m) against the kernel's O(n·r) cells.
func kernelRange(x, y []float64) bool {
	lim := math.Sqrt(math.MaxFloat64 / 8 / float64(len(x)+len(y)))
	for _, v := range x {
		if !(math.Abs(v) <= lim) {
			return false
		}
	}
	for _, v := range y {
		if !(math.Abs(v) <= lim) {
			return false
		}
	}
	return true
}

// bandedKernel is the squared-cost Sakoe-Chiba DP over the band
// [lo[i], hi[i]] of each row i, on two rolling rows prev and cur of
// len(y)+1 floats indexed by column+1 (index 0 is column -1). It returns
// the DP value of the last cell, or, when a completed row's minimum
// normalized by norm exceeds cutoff, that minimum and true.
//
// Before row i it writes +Inf sentinels into the previous row where a
// predecessor lies outside the band: column lo[i-1]-1 (no diagonal) and
// columns hi[i-1]+1..hi[i] (no up); the row's first cell starts from a
// +Inf left neighbour. A sentinel never wins a strict comparison, so one
// loop with no head/tail split covers the whole band. Each cell is
// min(up, diagonal, left) by bitMin, in that order, plus the squared
// difference; float64(d*d) keeps the compiler from fusing the multiply
// into the add.
//
// The caller guarantees kernelRange(x, y): every DP value is then +0,
// positive finite, or a +Inf sentinel, and on such values bitMin selects
// exactly what the branchy comparison chain would.
//
// voiceprintvet:noescape
func bandedKernel(prev, cur, x, y []float64, lo, hi []int, norm, cutoff float64) (float64, bool) {
	n := len(x)
	inf := math.Inf(1)
	checking := !math.IsInf(cutoff, 1)
	// Row 0 is a prefix sum: lo[0] is 0, and only the left neighbour
	// exists. Starting from +0 is exact: +0 + v is v for every v >= +0.
	x0 := x[0]
	yr := y[:hi[0]+1]
	row := prev[1 : len(yr)+1]
	acc := 0.0
	for j, yj := range yr {
		d := x0 - yj
		acc += float64(d * d)
		row[j] = acc
	}
	for i := 1; i < n; i++ {
		l, h := lo[i], hi[i]
		prev[lo[i-1]] = inf
		for j := hi[i-1] + 2; j <= h+1; j++ {
			prev[j] = inf
		}
		// Column l+k's diagonal and up neighbours are dg[k] and up[k];
		// its left neighbour is the previous cell, and the first cell's
		// is +Inf.
		yr := y[l : h+1]
		dg := prev[l:][:len(yr)]
		up := prev[l+1:][:len(yr)]
		c := cur[l+1:][:len(yr)]
		xi := x[i]
		left := inf
		for k, yk := range yr {
			best := bitMin(bitMin(up[k], dg[k]), left)
			d := xi - yk
			left = best + float64(d*d)
			c[k] = left
		}
		if checking && i < n-1 && (i+1)%abandonStride == 0 {
			rowMin := c[0]
			for _, v := range c[1:] {
				rowMin = bitMin(rowMin, v)
			}
			if rowMin/norm > cutoff {
				return rowMin, true
			}
		}
		prev, cur = cur, prev
	}
	return prev[hi[n-1]+1], false
}
