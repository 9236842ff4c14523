package dtw

// Test-only references and window helpers: the textbook recursive
// FastDTW that Workspace.FastDistance unrolls, and the window shapes the
// windowed-DP tests build directly.

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

// sakoeChiba returns the band window of the given radius around the
// resampled diagonal of an n-by-m matrix.
func sakoeChiba(n, m, radius int) *window {
	w := &window{lo: make([]int, n), hi: make([]int, n)}
	sakoeChibaFill(w, m, radius)
	return w
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
