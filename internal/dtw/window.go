package dtw

import "fmt"

// window restricts the DTW search to a band of cells: row i may use columns
// lo[i] through hi[i] inclusive. Windows must be row-contiguous and
// monotone so a legal warp path exists inside them.
type window struct {
	lo, hi []int
}

// bandRows steps through the Sakoe-Chiba band of radius r over an
// n-by-m matrix one row at a time: row i admits columns lo through hi,
// the center c = i*(m-1)/(n-1) widened by r, clamped to the matrix, with
// lo held at most one past the previous row's hi so the rows stay
// connected when the center jumps. It is the band a window would hold,
// without the O(n) window: the center advances by the quotient of
// (m-1)/(n-1) plus a carried remainder, so no row divides. Every hi is
// center+r capped at m-1, so the last row's hi is m-1 (the last center
// is m-1) and no row needs its index.
type bandRows struct {
	c, rem    int // center and its remainder modulo n-1
	q, dr, dn int // per-row center step (m-1)/(n-1) as quotient and remainder, and n-1
	r, last   int // radius and m-1
	lo, hi    int // the current row's columns
}

// newBandRows returns the band of x (n rows) against y (m columns) at
// row 0, which is columns 0 through min(r, m-1), or the whole row when
// n is 1. A negative radius is 0.
func newBandRows(n, m, radius int) bandRows {
	r := max(radius, 0)
	b := bandRows{r: r, last: m - 1, hi: min(r, m-1)}
	if n > 1 {
		b.q, b.dr, b.dn = (m-1)/(n-1), (m-1)%(n-1), n-1
	} else {
		b.hi = m - 1
	}
	return b
}

// next advances to the following row. The carry into the center is
// computed without a branch: when n and m are close, whether a row
// carries follows no pattern a branch predictor learns.
func (b *bandRows) next() {
	r := b.rem + b.dr
	carry := (b.dn - 1 - r) >> 63 // -1 when r >= dn, else 0
	b.rem = r - b.dn&carry
	b.c += b.q - carry
	b.lo = min(max(b.c-b.r, 0), b.hi+1)
	b.hi = min(b.c+b.r, b.last)
}

// bandFill fills w (whose lo/hi slices are already sized to n rows) with
// the Sakoe-Chiba band of radius r against m columns.
func bandFill(w *window, m, radius int) {
	b := newBandRows(len(w.lo), m, radius)
	for i := range w.lo {
		if i > 0 {
			b.next()
		}
		w.lo[i], w.hi[i] = b.lo, b.hi
	}
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
