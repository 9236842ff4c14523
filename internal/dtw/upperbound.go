package dtw

// An upper bound for banded DTW, used by the detector's compare-phase
// pruning: the round's smallest upper bound is the floor no pair's
// abandon cutoff may undercut, and visiting pairs by descending upper
// bound lets the detector find the exact batch maximum before any pair
// is pruned (see internal/core's maxFirst and DESIGN §10).

// BandPathUpperBound returns the squared cost of one concrete warp
// path admitted by the Sakoe-Chiba band of the given radius: the
// staircase through the band centers c_i = i*(m-1)/(n-1), with each
// horizontal run extended far enough in the previous row to honor the
// band's connectivity-adjusted row starts. It steps the same bandRows
// as the banded kernel, so every visited cell is in the band by
// construction. Being one valid path's cost, the value upper-bounds
// BandedDistance at the same radius — in floating point too, since the
// DP's cell values never exceed any single path's running cost
// accumulated in the same order. That argument needs both sides to
// round alike, so like the banded kernel every squared term is written
// float64(d*d), which no architecture may fuse into the add that
// follows it. For equal lengths it degenerates to the no-warp diagonal,
// the pointwise squared-error sum.
func BandPathUpperBound(x, y []float64, radius int) (float64, error) {
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		return 0, ErrEmptySeries
	}
	if n == 1 {
		// Single row: the band is the whole row and the only path walks
		// it left to right.
		var sum float64
		for _, v := range y {
			d := x[0] - v
			sum += float64(d * d)
		}
		return sum, nil
	}
	d := x[0] - y[0]
	sum := float64(d * d)
	cur := 0 // rightmost visited column of the current row
	band := newBandRows(n, m, radius)
	for i := 1; i < n; i++ {
		band.next()
		// When the band start outruns the previous center, keep walking
		// the previous row (its columns reach lo-1, which keeps the rows
		// connected) until a diagonal step into (i, lo) is legal.
		if lo := band.lo; lo > cur+1 {
			xp := x[i-1]
			for j := cur + 1; j < lo; j++ {
				d = xp - y[j]
				sum += float64(d * d)
			}
			cur = lo - 1
		}
		xi := x[i]
		if c := band.c; c == cur {
			// Vertical step onto the unchanged center.
			d = xi - y[cur]
			sum += float64(d * d)
		} else {
			// Diagonal into the row, then horizontal out to the center.
			for j := cur + 1; j <= c; j++ {
				d = xi - y[j]
				sum += float64(d * d)
			}
			cur = c
		}
	}
	return sum, nil
}
