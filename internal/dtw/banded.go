package dtw

import (
	"fmt"
	"math"
)

// BandedDistance computes DTW under a Sakoe-Chiba band of the given
// radius with the rolling-row banded kernel, which steps the band row by
// row in workspace scratch (no allocation).
func (ws *Workspace) BandedDistance(x, y []float64, radius int) (float64, error) {
	d, _, err := ws.banded(x, y, radius, math.Inf(1))
	return d, err
}

// BandedDistanceAbandon computes the same Sakoe-Chiba banded squared-cost
// DTW distance as BandedDistance, but only while it can still satisfy
// d/norm <= cutoff, with exactly the division the caller uses to
// normalize distances. The kernel computes only the cells that can lie on
// a warp path of raw cost at most U, the largest float64 whose quotient
// by norm does not exceed cutoff (rawLimit), and gives up at the first
// row with no such cell.
//
// The result is a pure function of the exact distance D = BandedDistance:
//
//   - D/norm <= cutoff: (D, false, nil), bit-identical to BandedDistance;
//   - otherwise: (Nextafter(U, +Inf), true, nil), the smallest raw value
//     whose quotient by norm exceeds cutoff. It is at most D, so it is an
//     admissible lower bound on the distance.
//
// A cutoff of +Inf or NaN never abandons. Inputs outside the kernel's
// range (see kernelRange: NaN, ±Inf, or values large enough to overflow
// a DP cell) are never abandoned either; they return BandedDistance's
// result. The result does not depend on which workspace runs the pair or
// what that workspace ran before.
func (ws *Workspace) BandedDistanceAbandon(x, y []float64, radius int, norm, cutoff float64) (float64, bool, error) {
	if !(norm > 0) {
		return 0, false, fmt.Errorf("dtw: abandon norm must be positive, got %v", norm)
	}
	if cutoff < 0 {
		return 0, false, fmt.Errorf("dtw: abandon cutoff must not be negative, got %v", cutoff)
	}
	return ws.banded(x, y, radius, rawLimit(norm, cutoff))
}

// rawLimit returns U, the largest float64 v >= 0 with v/norm <= cutoff,
// for norm > 0 and cutoff >= 0. Division rounds monotonically, so for
// every v >= 0, v > U exactly when v/norm > cutoff. A cutoff of +Inf or
// NaN, or a product cutoff·norm that overflows, gives +Inf: no DP value
// exceeds it. The correctly rounded product is within an ulp or two of U
// except where v/norm is subnormal, so the search probes the neighbouring
// bit patterns first and bisects only when that gallop runs long.
func rawLimit(norm, cutoff float64) float64 {
	u := cutoff * norm
	if !(u < math.Inf(1)) {
		return math.Inf(1)
	}
	// Non-negative floats order like their bit patterns. fits(lo) holds
	// and fits(hi) does not: +Inf/norm exceeds every finite cutoff.
	fits := func(b uint64) bool { return math.Float64frombits(b)/norm <= cutoff }
	lo, hi := uint64(0), math.Float64bits(math.Inf(1))
	k := math.Float64bits(math.Abs(u)) // Abs: cutoff may be -0
	up := fits(k)
	if up {
		lo = k
	} else {
		hi = k
	}
	for d := uint64(1); hi-lo > 1; d *= 2 {
		d = min(d, (hi-lo)/2)
		p := lo + d
		if !up {
			p = hi - d
		}
		if fits(p) {
			lo = p
		} else {
			hi = p
		}
	}
	return math.Float64frombits(lo)
}

// banded is the squared-cost banded DP behind BandedDistance and
// BandedDistanceAbandon; a limit of +Inf turns abandoning off. Inputs the
// kernel cannot take exactly go to the windowed DP over the same band,
// never abandoned.
func (ws *Workspace) banded(x, y []float64, radius int, limit float64) (float64, bool, error) {
	if len(x) == 0 || len(y) == 0 {
		return 0, false, ErrEmptySeries
	}
	if !kernelRange(x, y) {
		n := len(x)
		ws.winLo = growInt(ws.winLo, n)
		ws.winHi = growInt(ws.winHi, n)
		ws.win.lo, ws.win.hi = ws.winLo, ws.winHi
		bandFill(&ws.win, len(y), radius)
		d, _, err := ws.constrained(x, y, &ws.win, false, nil)
		return d, false, err
	}
	m := len(y)
	ws.prev = growF64(ws.prev, m+2)
	ws.cur = growF64(ws.cur, m+2)
	ws.next = growF64(ws.next, m+2)
	d, abandoned := bandedKernel(ws.prev, ws.cur, ws.next, x, y, radius, limit)
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

// bandedKernel is the squared-cost Sakoe-Chiba DP of the given radius,
// computing only the cells that can lie on a warp path of cost at most
// limit (PrunedDTW, Silva & Batista 2016; EAPrunedDTW, Herrmann & Webb
// 2021). It steps the band two rows per pass on three rolling rows p, a
// and b of len(y)+2 floats indexed by column+1 (index 0 is column -1),
// and a last odd row alone. It returns the DP value of the last cell
// when that value is at most limit, and otherwise Nextafter(limit, +Inf)
// and true. With limit +Inf it is the exact DP. An abandoned pair costs
// only the rows it ran: nothing here walks the whole series up front.
//
// Let [ps, pe] be the first and last columns of row i-1 whose value is
// at most limit. Row i runs the full recurrence over columns
// max(lo, ps) through min(hi, pe+1) and then continues left-only while
// the value stays at most limit: past pe+1 the up and diagonal
// neighbours both exceed limit. A row with no value at most limit
// abandons the pair. After each row +Inf sentinels go into columns ps-1
// and pe+1, the edges the next row reads, and each row's first cell
// starts from a +Inf left neighbour, so one loop with no head/tail split
// (bandRow) covers the full-recurrence range; the row's edges are then
// found by scanning in from both ends (rowEdges). Each cell is min(up,
// diagonal, left) by bitMin, in that order, plus the squared difference;
// float64(d*d) keeps the compiler from fusing the multiply into the add.
//
// A pass computes row A = i as above and row B = i+1 one column behind
// it (bandRow2), so each step carries two independent min-plus-add
// chains where one row has one. Row B cannot wait for row A's edges, so
// it starts at max(lo_B, l_A), at or left of its own range, and runs
// through h_A-1, one column short of row A's last full-recurrence
// column h_A and possibly past its own range. Once row A's edges are
// known, row B extends its full recurrence to min(hi_B, pe_A+1) if that
// lies further right, then finishes as a single row does: left-only
// continuation, edge scans, sentinels.
//
// Every cell whose exact value is at most limit has a predecessor at
// most limit, which by induction was computed exactly, so it is computed
// from the same values in the same order and gets the same bits. Every
// other cell the kernel computes, including row B's cells outside its
// own range, reads only predecessors that exceed limit or are exact, so
// it comes out above limit: a cell computed from values above limit
// stays above limit. Where row B runs past pe_A+1 its up and diagonal
// neighbours exceed limit, so its cells there equal the left-only
// continuation while it stays at most limit. The outcome is therefore a
// function of the exact distance alone.
//
// The caller guarantees kernelRange(x, y): every DP value is then +0,
// positive finite, or a +Inf sentinel, and on such values bitMin selects
// exactly what the branchy comparison chain would.
func bandedKernel(p, a, b, x, y []float64, radius int, limit float64) (float64, bool) {
	n, m := len(x), len(y)
	inf := math.Inf(1)
	band := newBandRows(n, m, radius)
	// Row 0 is a prefix sum: its band starts at column 0, and only the
	// left neighbour exists, so its cells at most limit are a prefix.
	// Starting from +0 is exact: +0 + v is v for every v >= +0.
	x0 := x[0]
	yr := y[:band.hi+1]
	row := p[1 : len(yr)+1]
	acc := 0.0
	ps, pe := 0, -1
	for j, yj := range yr {
		d := x0 - yj
		if acc += float64(d * d); acc > limit {
			break
		}
		row[j] = acc
		pe = j
	}
	if pe < 0 {
		return math.Nextafter(limit, inf), true
	}
	p[0], p[pe+2] = inf, inf
	for i := 1; i < n; i += 2 {
		band.next()
		hiA := band.hi
		l, h := max(band.lo, ps), min(hiA, pe+1)
		if l > h {
			return math.Nextafter(limit, inf), true
		}
		xa := x[i]
		if i+1 == n {
			left := bandRow(a[l+1:], p[l:], y[l:h+1], xa, inf)
			if ps, pe = rowEdges(a, y, xa, l, h, hiA, left, limit); pe < ps {
				return math.Nextafter(limit, inf), true
			}
			p, a = a, p
			break
		}
		band.next()
		loB, hiB := band.lo, band.hi
		xb := x[i+1]
		// Row A runs alone through column s, where row B starts; then
		// both run, B one column behind. B's first diagonal neighbour is
		// A's column s-1, a sentinel when s is A's first column.
		s := min(max(loB, l), h)
		a[l] = inf
		la, lb := bandRow(a[l+1:], p[l:], y[l:s+1], xa, inf), inf
		if s < h {
			la, lb = bandRow2(a[s+2:], b[s+1:], p[s+1:], y[s:h+1], xa, xb, a[s], la)
		}
		psA, peA := rowEdges(a, y, xa, l, h, hiA, la, limit)
		if peA < psA {
			return math.Nextafter(limit, inf), true
		}
		lB, hB := max(loB, psA), min(hiB, peA+1)
		if lB > hB {
			return math.Nextafter(limit, inf), true
		}
		// Row B's full recurrence spans [s, h-1] so far (none of it when
		// s is h, and then lB >= h) and must reach hB. Its cells left of
		// lB exceed limit, so the edge scans start at lB.
		switch {
		case s == h:
			lb = bandRow(b[lB+1:], a[lB:], y[lB:hB+1], xb, inf)
		case hB >= h:
			lb = bandRow(b[h+1:], a[h:], y[h:hB+1], xb, lb)
		}
		if ps, pe = rowEdges(b, y, xb, lB, max(h-1, hB), hiB, lb, limit); pe < ps {
			return math.Nextafter(limit, inf), true
		}
		p, a, b = b, p, a
	}
	if pe < m-1 {
		return math.Nextafter(limit, inf), true
	}
	return p[m], false
}

// rowEdges finishes a row r whose full-recurrence cells span columns s
// through h, the last of them left, in a band ending at column hi, and
// returns the row's edges [ps, pe], or pe < ps when no cell is at most
// limit. The last full cell decides the right edge: at most limit, the
// row continues left-only; above it, the edge is the last full cell at
// most limit. The left edge is the first. Sentinels then go into
// columns ps-1 and pe+1.
func rowEdges(r, y []float64, xi float64, s, h, hi int, left, limit float64) (int, int) {
	e := h
	if left <= limit {
		for j := h + 1; j <= hi; j++ {
			d := xi - y[j]
			if left += float64(d * d); left > limit {
				break
			}
			r[j+1] = left
			e = j
		}
	} else {
		for e >= s && r[e+1] > limit {
			e--
		}
		if e < s {
			return 0, -1
		}
	}
	ps := s
	for r[ps+1] > limit {
		ps++
	}
	r[ps], r[e+2] = math.Inf(1), math.Inf(1)
	return ps, e
}

// bandRow computes one row's full-recurrence cells into c: column k's
// diagonal and up neighbours are p[k] and p[k+1], its left neighbour is
// the previous cell, and the first cell's is left. It returns the last
// cell. It is a function of its own so the loop gets the registers the
// surrounding row bookkeeping would otherwise take.
func bandRow(c, p, yr []float64, xi, left float64) float64 {
	dg := p[:len(yr)]
	up := p[1:][:len(yr)]
	c = c[:len(yr)]
	for k, yk := range yr {
		best := bitMin(bitMin(up[k], dg[k]), left)
		d := xi - yk
		left = best + float64(d*d)
		c[k] = left
	}
	return left
}

// bandRow2 computes two rows' full-recurrence cells in one loop: step k
// computes row A's column k+1 into ca[k], with diagonal and up
// neighbours p[k] and p[k+1], and row B's column k into cb[k], with up
// and diagonal neighbours A's columns k and k-1, kept in registers. yr
// holds the y values of columns 0 through len(yr)-1; A's column 0 is la
// and its column -1 is dgB, and B's first left neighbour is +Inf. It
// returns both rows' last cells.
func bandRow2(ca, cb, p, yr []float64, xa, xb, dgB, la float64) (float64, float64) {
	lb := math.Inf(1)
	w := len(yr) - 1
	ya, yb := yr[1:][:w], yr[:w]
	dg, up := p[:w], p[1:][:w]
	ca, cb = ca[:w], cb[:w]
	for k := range ya {
		da, db := xa-ya[k], xb-yb[k]
		va := bitMin(bitMin(up[k], dg[k]), la) + float64(da*da)
		vb := bitMin(bitMin(la, dgB), lb) + float64(db*db)
		dgB, la, lb = la, va, vb
		ca[k], cb[k] = va, vb
	}
	return la, lb
}
