package dtw

// Test-only references and window helpers: the textbook recursive
// FastDTW that Workspace.FastDistance unrolls, the divide-per-row
// Sakoe-Chiba band and staircase upper bound that bandRows and
// BandPathUpperBound step through, and the window shapes the windowed-DP
// tests build directly.

// fastDTW is the recursive FastDTW of Salvador & Chan: coarsen both
// series by halving, solve recursively, project the low-resolution warp
// path up, and refine inside the window expanded by radius. It allocates
// every level afresh; Workspace.FastDistance must return the same bits.
func fastDTW(x, y []float64, radius int) (float64, Path, error) {
	if len(x) == 0 || len(y) == 0 {
		return 0, nil, ErrEmptySeries
	}
	if radius < 0 {
		radius = 0
	}
	minSize := radius + 2
	if len(x) <= minSize || len(y) <= minSize {
		return DistanceWithPath(x, y)
	}
	_, lowPath, err := fastDTW(reduceByHalf(x), reduceByHalf(y), radius)
	if err != nil {
		return 0, nil, err
	}
	w := &window{lo: make([]int, len(x)), hi: make([]int, len(x))}
	expandedWindowFill(w, lowPath, len(y), radius)
	return NewWorkspace().constrained(x, y, w, true, nil)
}

// reduceByHalf halves the resolution of a series by averaging adjacent
// pairs; an odd trailing element is kept as-is.
func reduceByHalf(x []float64) []float64 {
	return reduceByHalfInto(make([]float64, 0, (len(x)+1)/2), x)
}

// pathCost sums the squared pointwise cost of the matches along p.
func pathCost(p Path, x, y []float64) float64 {
	var total float64
	for _, w := range p {
		d := x[w.I] - y[w.J]
		total += float64(d * d)
	}
	return total
}

// sakoeChibaFill populates w (whose lo/hi slices are already sized to n
// rows) with the Sakoe-Chiba band of the given radius the plain way:
// divide out each row's center, widen it by the radius, clamp, then let
// makeContiguous enforce monotone, connected rows with both corners.
// bandRows must step through exactly these rows.
func sakoeChibaFill(w *window, m, radius int) {
	if radius < 0 {
		radius = 0
	}
	n := len(w.lo)
	for i := 0; i < n; i++ {
		// Project row i onto the diagonal of the (possibly non-square)
		// matrix, then widen by the radius.
		center := 0
		if n > 1 {
			center = i * (m - 1) / (n - 1)
		}
		lo := center - radius
		hi := center + radius
		if lo < 0 {
			lo = 0
		}
		if hi > m-1 {
			hi = m - 1
		}
		w.lo[i] = lo
		w.hi[i] = hi
	}
	w.makeContiguous(m)
}

// sakoeChiba returns the band window of the given radius around the
// resampled diagonal of an n-by-m matrix.
func sakoeChiba(n, m, radius int) *window {
	w := &window{lo: make([]int, n), hi: make([]int, n)}
	sakoeChibaFill(w, m, radius)
	return w
}

// refUpperBound is BandPathUpperBound as first written, dividing out
// each row's center and re-deriving the band's row starts from
// sakoeChibaFill's and makeContiguous's rules by hand; the stepped bound
// must return the same bits.
func refUpperBound(x, y []float64, radius int) (float64, error) {
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		return 0, ErrEmptySeries
	}
	if radius < 0 {
		radius = 0
	}
	if n == 1 {
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
	loPrev := 0
	hiPrev := radius
	if hiPrev > m-1 {
		hiPrev = m - 1
	}
	for i := 1; i < n; i++ {
		c := i * (m - 1) / (n - 1)
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
		if lo > cur+1 {
			xp := x[i-1]
			for j := cur + 1; j < lo; j++ {
				d = xp - y[j]
				sum += float64(d * d)
			}
			cur = lo - 1
		}
		xi := x[i]
		if c == cur {
			d = xi - y[cur]
			sum += float64(d * d)
		} else {
			for j := cur + 1; j <= c; j++ {
				d = xi - y[j]
				sum += float64(d * d)
			}
			cur = c
		}
		loPrev, hiPrev = lo, hi
	}
	return sum, nil
}

// fullWindow admits every cell of an n-by-m matrix (exact DTW).
func fullWindow(n, m int) *window {
	w := &window{lo: make([]int, n), hi: make([]int, n)}
	for i := range w.hi {
		w.hi[i] = m - 1
	}
	return w
}

// size returns the number of admitted cells.
func (w *window) size() int {
	total := 0
	for i := range w.lo {
		total += w.hi[i] - w.lo[i] + 1
	}
	return total
}

// contains reports whether cell (i, j) is inside the window.
func (w *window) contains(i, j int) bool {
	return i >= 0 && i < len(w.lo) && j >= w.lo[i] && j <= w.hi[i]
}
