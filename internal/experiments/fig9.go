package experiments

import (
	"fmt"

	"voiceprint/internal/dtw"
)

// Fig9Result is the paper's worked DTW example.
type Fig9Result struct {
	X, Y     []float64
	Distance float64
	Path     dtw.Path
}

// Fig9 evaluates the paper's Figure 9 example, X = {1,1,4,1,1} and
// Y = {2,2,2,4,2,2}, with the paper's own Equations 3-6. Exact evaluation
// yields 5; the figure caption states 9, which matches no standard step
// pattern we could reconstruct (see EXPERIMENTS.md).
func Fig9() (*Fig9Result, error) {
	x := []float64{1, 1, 4, 1, 1}
	y := []float64{2, 2, 2, 4, 2, 2}
	d, path, err := dtw.DistanceWithPath(x, y)
	if err != nil {
		return nil, err
	}
	return &Fig9Result{X: x, Y: y, Distance: d, Path: path}, nil
}

// Render formats the example.
func (r *Fig9Result) Render() string {
	out := fmt.Sprintf("Figure 9 — worked DTW example\nX = %v\nY = %v\n", r.X, r.Y)
	out += fmt.Sprintf("DTW distance (Eqs 3-6, squared cost): %v\n", r.Distance)
	out += fmt.Sprintf("optimal warp path: %v\n", r.Path)
	out += "note: the paper's caption reports 9; exact evaluation of its own equations yields 5\n"
	return out
}
