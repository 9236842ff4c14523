package dtw

// FastDistance approximates the DTW distance in O(N) time and memory
// using the multilevel FastDTW approach of Salvador & Chan ("Toward
// Accurate Dynamic Time Warping in Linear Time and Space"): coarsen both
// series by halving, solve the coarsest level exactly, project the
// low-resolution warp path up, and refine inside a window expanded by
// the given radius. Radius 1 already recovers the exact distance on the
// vast majority of RSSI series (the paper cites ~1% accuracy loss);
// larger radii trade time for accuracy.
//
// The returned distance is always >= the exact DTW distance, with
// equality when the optimal path lies inside the searched window. The
// whole pyramid runs on a pooled Workspace, so steady-state calls
// allocate nothing; hold a Workspace per goroutine and call its
// FastDistance method to skip even the pool round-trip.
func FastDistance(x, y []float64, radius int) (float64, error) {
	ws := GetWorkspace()
	d, err := ws.FastDistance(x, y, radius)
	PutWorkspace(ws)
	return d, err
}
