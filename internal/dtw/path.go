package dtw

import "fmt"

// Pair is one warp-path element w_k = (i, j): the i-th element of X matched
// to the j-th element of Y. Indices are zero-based (the paper writes them
// one-based).
type Pair struct {
	I, J int
}

// Path is a warp path W = w_1 ... w_K.
type Path []Pair

// Validate checks the paper's path constraints for series of lengths n and
// m: the boundary condition (starts at (0,0), ends at (n-1, m-1)) and the
// monotonicity/continuity condition of Equation 5
// (i <= i' <= i+1, j <= j' <= j+1, advancing at least one index per step).
func (p Path) Validate(n, m int) error {
	if len(p) == 0 {
		return fmt.Errorf("dtw: empty path")
	}
	if p[0] != (Pair{0, 0}) {
		return fmt.Errorf("dtw: path starts at %v, want (0,0)", p[0])
	}
	if p[len(p)-1] != (Pair{n - 1, m - 1}) {
		return fmt.Errorf("dtw: path ends at %v, want (%d,%d)", p[len(p)-1], n-1, m-1)
	}
	for k := 1; k < len(p); k++ {
		di := p[k].I - p[k-1].I
		dj := p[k].J - p[k-1].J
		if di < 0 || di > 1 || dj < 0 || dj > 1 || (di == 0 && dj == 0) {
			return fmt.Errorf("dtw: illegal step %v -> %v at k=%d", p[k-1], p[k], k)
		}
	}
	return nil
}
