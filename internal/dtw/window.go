package dtw

import "fmt"

// window restricts the DTW search to a band of cells: row i may use columns
// lo[i] through hi[i] inclusive. Windows must be row-contiguous and
// monotone so a legal warp path exists inside them.
type window struct {
	lo, hi []int
}

// sakoeChibaFill populates w (whose lo/hi slices are already sized to n
// rows) with the Sakoe-Chiba band of the given radius. Workspaces use it
// to rebuild the band in scratch without allocating.
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

// validate checks the invariants the DP relies on.
func (w *window) validate(n, m int) error {
	if len(w.lo) != n || len(w.hi) != n {
		return fmt.Errorf("dtw: window has %d rows, want %d", len(w.lo), n)
	}
	if w.lo[0] != 0 {
		return fmt.Errorf("dtw: window excludes start cell (0,0)")
	}
	if w.hi[n-1] != m-1 {
		return fmt.Errorf("dtw: window excludes end cell (%d,%d)", n-1, m-1)
	}
	for i := 0; i < n; i++ {
		if w.lo[i] < 0 || w.hi[i] > m-1 || w.lo[i] > w.hi[i] {
			return fmt.Errorf("dtw: bad range [%d,%d] at row %d", w.lo[i], w.hi[i], i)
		}
		if i > 0 {
			if w.lo[i] < w.lo[i-1] {
				return fmt.Errorf("dtw: window lo not monotone at row %d", i)
			}
			if w.lo[i] > w.hi[i-1]+1 {
				return fmt.Errorf("dtw: window rows %d and %d disconnected", i-1, i)
			}
		}
	}
	return nil
}

// makeContiguous enforces monotone, connected ranges, always keeping the
// (0,0) and (n-1,m-1) corners reachable.
func (w *window) makeContiguous(m int) {
	n := len(w.lo)
	if n == 0 {
		return
	}
	w.lo[0] = 0
	w.hi[n-1] = m - 1
	for i := 1; i < n; i++ {
		if w.lo[i] < w.lo[i-1] {
			w.lo[i] = w.lo[i-1]
		}
		if w.lo[i] > w.hi[i-1]+1 {
			w.lo[i] = w.hi[i-1] + 1
		}
		if w.hi[i] < w.hi[i-1] {
			w.hi[i] = w.hi[i-1]
		}
		if w.hi[i] > m-1 {
			w.hi[i] = m - 1
		}
		if w.lo[i] > w.hi[i] {
			w.lo[i] = w.hi[i]
		}
	}
}

// expandedWindowFill builds the FastDTW search window for a
// high-resolution pass into a pre-sized window (n rows implied by
// len(w.lo)): each low-resolution path cell (i,j) projects onto the 2x2
// block of high-resolution cells it covers, and the block set is then
// widened by radius cells in every direction.
func expandedWindowFill(w *window, lowPath Path, m, radius int) {
	n := len(w.lo)
	for i := range w.lo {
		w.lo[i] = m // sentinel: empty
		w.hi[i] = -1
	}
	mark := func(i, j int) {
		if i < 0 || i >= n {
			return
		}
		if j < 0 {
			j = 0
		}
		if j > m-1 {
			j = m - 1
		}
		if j < w.lo[i] {
			w.lo[i] = j
		}
		if j > w.hi[i] {
			w.hi[i] = j
		}
	}
	for _, cell := range lowPath {
		baseI := cell.I * 2
		baseJ := cell.J * 2
		for di := -radius; di < 2+radius; di++ {
			mark(baseI+di, baseJ-radius)
			mark(baseI+di, baseJ+1+radius)
		}
	}
	// Rows never touched by the projection (possible at the tail when the
	// high-resolution series has odd length) inherit neighbours' ranges.
	for i := 0; i < n; i++ {
		if w.hi[i] < 0 {
			if i > 0 {
				w.lo[i] = w.lo[i-1]
				w.hi[i] = w.hi[i-1]
			} else {
				w.lo[i] = 0
				w.hi[i] = 0
			}
		}
	}
	w.makeContiguous(m)
}
