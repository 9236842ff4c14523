package dtw

// An upper bound for banded DTW, used by the detector's compare-phase
// pruning: after early-abandoned pairs have recorded lower bounds, a
// cheap upper bound lets the detector restore the exact batch maximum
// without computing every pruned pair (see internal/core's
// restoreBatchExtremes and DESIGN §10).

// BandPathUpperBound returns the squared cost of one concrete warp
// path admitted by the Sakoe-Chiba band of the given radius: the
// staircase through the band centers c_i = i*(m-1)/(n-1), with each
// horizontal run extended far enough in the previous row to honor the
// band's connectivity-adjusted row starts (it replicates exactly the
// lo/hi arithmetic of sakoeChibaFill + makeContiguous, so every visited
// cell is in-window by construction). Being one valid path's cost, the
// value upper-bounds BandedDistance at the same radius — in floating
// point too, since the DP's cell values never exceed any single path's
// running cost accumulated in the same order. For equal lengths it
// degenerates to the no-warp diagonal (EuclideanSquared).
func BandPathUpperBound(x, y []float64, radius int) (float64, error) {
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		return 0, ErrEmptySeries
	}
	if radius < 0 {
		radius = 0
	}
	if n == 1 {
		// Single row: the band is the whole row and the only path walks
		// it left to right.
		var sum float64
		for _, v := range y {
			d := x[0] - v
			sum += d * d
		}
		return sum, nil
	}
	d := x[0] - y[0]
	sum := d * d
	cur := 0 // rightmost visited column of the current row
	loPrev := 0
	hiPrev := radius
	if hiPrev > m-1 {
		hiPrev = m - 1
	}
	for i := 1; i < n; i++ {
		c := i * (m - 1) / (n - 1)
		// Row i's window bounds, mirroring sakoeChibaFill's clamped
		// center±radius and makeContiguous's monotone/connectivity fixes.
		lo := c - radius
		if lo < 0 {
			lo = 0
		}
		if lo < loPrev {
			lo = loPrev
		}
		if lo > hiPrev+1 {
			lo = hiPrev + 1
		}
		hi := c + radius
		if hi > m-1 {
			hi = m - 1
		}
		if hi < hiPrev {
			hi = hiPrev
		}
		if lo > hi {
			lo = hi
		}
		// When the band start outruns the previous center, keep walking
		// the previous row (columns <= hiPrev >= lo-1 by the rules
		// above) until a diagonal step into (i, lo) is legal.
		if lo > cur+1 {
			xp := x[i-1]
			for j := cur + 1; j < lo; j++ {
				d = xp - y[j]
				sum += d * d
			}
			cur = lo - 1
		}
		xi := x[i]
		if c == cur {
			// Vertical step onto the unchanged center.
			d = xi - y[cur]
			sum += d * d
		} else {
			// Diagonal into the row, then horizontal out to the center.
			for j := cur + 1; j <= c; j++ {
				d = xi - y[j]
				sum += d * d
			}
			cur = c
		}
		loPrev, hiPrev = lo, hi
	}
	return sum, nil
}
