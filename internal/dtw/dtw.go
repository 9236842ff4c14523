// Package dtw implements Dynamic Time Warping exactly as defined in the
// paper's Equations 3-6 (squared pointwise cost, accumulated-cost recursion,
// boundary and monotonicity constraints). The Voiceprint detector compares
// pairs with Sakoe-Chiba banded DTW (BandedDistance, BandedDistanceAbandon);
// the linear-time multilevel approximation of Salvador & Chan
// (FastDistance) serves its BandRadius < 0 ablation.
//
// The local cost is always Equation 3's squared difference, and every
// squared term is written float64(d*d) so no architecture fuses it into
// the following add: distances are the same bits on amd64 and arm64.
//
// Every distance variant runs on reusable scratch memory (Workspace): the
// package-level functions borrow a pooled workspace per call, and hot
// loops (the detector's pairwise comparison phase) hold one workspace per
// goroutine so thousands of comparisons per round allocate nothing.
package dtw

import "errors"

// ErrEmptySeries is returned when either input series is empty.
var ErrEmptySeries = errors.New("dtw: empty series")

// Distance computes the exact DTW distance between x and y. It runs in
// O(N*M) time and O(M) memory (two rolling rows, no path reconstruction),
// on pooled scratch.
func Distance(x, y []float64) (float64, error) {
	ws := GetWorkspace()
	d, err := ws.Distance(x, y)
	PutWorkspace(ws)
	return d, err
}

// DistanceWithPath computes the exact DTW distance and the optimal warp
// path. It needs O(N*M) memory for backtracking, so prefer Distance when
// the path is not needed.
func DistanceWithPath(x, y []float64) (float64, Path, error) {
	if len(x) == 0 || len(y) == 0 {
		return 0, nil, ErrEmptySeries
	}
	ws := GetWorkspace()
	d, path, err := ws.fullPath(x, y, nil)
	PutWorkspace(ws)
	return d, path, err
}
