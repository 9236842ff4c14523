package dtw

import (
	"fmt"
	"math"
	"sync"
)

// Workspace holds the reusable scratch memory behind every DTW variant:
// the rolling rows of the exact DP, the cell backing and band bounds of
// the windowed DP, and the pyramid scratch (reduced series, projected
// warp paths) of FastDTW. A detection round compares thousands of pairs;
// routing them through one Workspace per worker goroutine makes the
// whole pairwise phase allocation-free after warm-up while producing
// bit-identical distances (the arithmetic is untouched — only the buffer
// lifetimes change).
//
// A Workspace is not safe for concurrent use; use one per goroutine
// (GetWorkspace/PutWorkspace pool them across rounds).
type Workspace struct {
	// Rolling rows for the unconstrained O(N*M)-time, O(M)-memory DP
	// and the banded kernel, which steps two rows at a time and so
	// needs a third.
	prev, cur, next []float64
	// Windowed-DP cell backing and per-row offsets into it.
	cells []float64
	offs  []int
	// Band bounds scratch and the window header that borrows them.
	winLo, winHi []int
	win          window
	// FastDTW pyramid scratch: the halved series of every level packed
	// into one arena, plus double-buffered warp paths for the unwind.
	arena        []float64
	lvlX, lvlY   [][]float64
	sizes        []lvlDims
	pathA, pathB Path
}

// lvlDims is one FastDTW pyramid level's series lengths.
type lvlDims struct{ nx, ny int }

// NewWorkspace returns an empty Workspace; buffers grow on first use and
// are retained across calls.
func NewWorkspace() *Workspace { return &Workspace{} }

var workspacePool = sync.Pool{New: func() any { return &Workspace{} }}

// GetWorkspace borrows a Workspace from the package pool.
func GetWorkspace() *Workspace { return workspacePool.Get().(*Workspace) }

// PutWorkspace returns a Workspace to the pool. The caller must not use
// ws afterwards.
func PutWorkspace(ws *Workspace) {
	if ws != nil {
		workspacePool.Put(ws)
	}
}

// growF64 returns buf resized to n, reallocating only when capacity is
// exhausted. Contents are unspecified: every DP writes a cell before
// reading it.
func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growInt(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// Distance computes the exact DTW distance between x and y, reusing the
// workspace's rolling rows; the package-level Distance borrows a pooled
// workspace for it.
func (ws *Workspace) Distance(x, y []float64) (float64, error) {
	if len(x) == 0 || len(y) == 0 {
		return 0, ErrEmptySeries
	}
	m := len(y)
	ws.prev = growF64(ws.prev, m)
	ws.cur = growF64(ws.cur, m)
	prev, cur := ws.prev, ws.cur

	d := x[0] - y[0]
	prev[0] = float64(d * d)
	for j := 1; j < m; j++ {
		d = x[0] - y[j]
		prev[j] = prev[j-1] + float64(d*d)
	}
	for i := 1; i < len(x); i++ {
		xi := x[i]
		d = xi - y[0]
		cur[0] = prev[0] + float64(d*d)
		for j := 1; j < m; j++ {
			best := prev[j] // insertion (advance i only)
			if prev[j-1] < best {
				best = prev[j-1] // diagonal match
			}
			if cur[j-1] < best {
				best = cur[j-1] // deletion (advance j only)
			}
			d = xi - y[j]
			cur[j] = best + float64(d*d)
		}
		prev, cur = cur, prev
	}
	return prev[m-1], nil
}

// constrained runs the DTW recursion over the cells admitted by w only;
// cells outside the window are treated as +Inf. The window must include
// (0,0) and (n-1, m-1) and be row-contiguous, which both Sakoe-Chiba
// bands and FastDTW expanded windows guarantee. When wantPath is set the
// optimal path is backtracked into dst (appended from dst[:0]; nil dst
// allocates a caller-owned path).
func (ws *Workspace) constrained(x, y []float64, w *window, wantPath bool, dst Path) (float64, Path, error) {
	if len(x) == 0 || len(y) == 0 {
		return 0, nil, ErrEmptySeries
	}
	n, m := len(x), len(y)
	if err := w.validate(n, m); err != nil {
		return 0, nil, err
	}

	// All window cells live in one backing array addressed via per-row
	// offsets, so a workspace reuse costs nothing.
	ws.offs = growInt(ws.offs, n)
	size := 0
	for i := 0; i < n; i++ {
		ws.offs[i] = size
		size += w.hi[i] - w.lo[i] + 1
	}
	ws.cells = growF64(ws.cells, size)
	cells, offs := ws.cells, ws.offs
	get := func(i, j int) float64 {
		if i < 0 || j < 0 || j < w.lo[i] || j > w.hi[i] {
			return math.Inf(1)
		}
		return cells[offs[i]+j-w.lo[i]]
	}
	// Each row splits into a bounds-checked head and tail (cells missing
	// one of the three predecessors) and a branch-reduced interior kernel
	// where up, diagonal and left all provably exist — no bounds checks,
	// no disconnection test (the up neighbor is a computed, finite cell).
	// Head, tail and interior take the minimum in the same order, so the
	// split never changes a distance.
	for i := 0; i < n; i++ {
		lo, hi := w.lo[i], w.hi[i]
		row := cells[offs[i] : offs[i]+hi-lo+1]
		xi := x[i]
		if i == 0 {
			d := xi - y[0]
			row[0] = float64(d * d)
			for j := lo + 1; j <= hi; j++ {
				d = xi - y[j]
				row[j-lo] = row[j-1-lo] + float64(d*d)
			}
			continue
		}
		plo, phi := w.lo[i-1], w.hi[i-1]
		prevRow := cells[offs[i-1] : offs[i-1]+phi-plo+1]
		j := lo
		// Head: first cell of the row (no left neighbor) and cells at
		// or below the previous row's window start (no diagonal).
		for ; j <= hi && (j == lo || j <= plo); j++ {
			v, ok := sqCell(row, prevRow, lo, plo, j, xi, y[j])
			if !ok {
				return 0, nil, fmt.Errorf("dtw: window disconnected at cell (%d,%d)", i, j)
			}
			row[j-lo] = v
		}
		// Interior kernel: j in [max(lo,plo)+1, min(hi,phi)].
		kend := hi
		if kend > phi {
			kend = phi
		}
		for ; j <= kend; j++ {
			best := prevRow[j-plo]
			if v := prevRow[j-1-plo]; v < best {
				best = v
			}
			if v := row[j-1-lo]; v < best {
				best = v
			}
			d := xi - y[j]
			row[j-lo] = best + float64(d*d)
		}
		// Tail: cells past the previous row's window end.
		for ; j <= hi; j++ {
			v, ok := sqCell(row, prevRow, lo, plo, j, xi, y[j])
			if !ok {
				return 0, nil, fmt.Errorf("dtw: window disconnected at cell (%d,%d)", i, j)
			}
			row[j-lo] = v
		}
	}
	total := get(n-1, m-1)
	if !wantPath {
		return total, nil, nil
	}

	path := dst
	if path == nil {
		path = make(Path, 0, n+m)
	} else {
		path = path[:0]
	}
	i, j := n-1, m-1
	path = append(path, Pair{i, j})
	for i > 0 || j > 0 {
		diag := get(i-1, j-1)
		up := get(i-1, j)
		left := get(i, j-1)
		if diag <= up && diag <= left {
			i--
			j--
		} else if up <= left {
			i--
		} else {
			j--
		}
		path = append(path, Pair{i, j})
	}
	for a, b := 0, len(path)-1; a < b; a, b = a+1, b-1 {
		path[a], path[b] = path[b], path[a]
	}
	return total, path, nil
}

// sqCell computes one windowed-DP cell with full bounds checks — the
// fallback for row head/tail cells where a predecessor may be missing;
// ok is false when none is reachable (disconnected window). The
// min-comparison order (up, diagonal, left; strict <) matches the
// interior kernel, keeping the two bit-identical.
func sqCell(row, prevRow []float64, lo, plo, j int, xi, yj float64) (float64, bool) {
	best := math.Inf(1)
	if prevRow != nil {
		if k := j - plo; k >= 0 && k < len(prevRow) {
			if v := prevRow[k]; v < best {
				best = v
			}
		}
		if k := j - 1 - plo; k >= 0 && k < len(prevRow) {
			if v := prevRow[k]; v < best {
				best = v
			}
		}
	}
	if j-1 >= lo {
		if v := row[j-1-lo]; v < best {
			best = v
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	d := xi - yj
	return best + float64(d*d), true
}

// fullPath computes the exact DTW distance and optimal warp path over
// the full n-by-m matrix, using the workspace cell backing for the DP
// and appending the path into dst[:0]. It is the FastDTW pyramid base
// case (DistanceWithPath keeps its own caller-owned allocation).
func (ws *Workspace) fullPath(x, y []float64, dst Path) (float64, Path, error) {
	if len(x) == 0 || len(y) == 0 {
		return 0, nil, ErrEmptySeries
	}
	n, m := len(x), len(y)
	ws.cells = growF64(ws.cells, n*m)
	d := ws.cells
	idx := func(i, j int) int { return i*m + j }

	e := x[0] - y[0]
	d[idx(0, 0)] = float64(e * e)
	for j := 1; j < m; j++ {
		e = x[0] - y[j]
		d[idx(0, j)] = d[idx(0, j-1)] + float64(e*e)
	}
	for i := 1; i < n; i++ {
		e = x[i] - y[0]
		d[idx(i, 0)] = d[idx(i-1, 0)] + float64(e*e)
		for j := 1; j < m; j++ {
			best := d[idx(i-1, j)]
			if v := d[idx(i-1, j-1)]; v < best {
				best = v
			}
			if v := d[idx(i, j-1)]; v < best {
				best = v
			}
			e = x[i] - y[j]
			d[idx(i, j)] = best + float64(e*e)
		}
	}

	path := dst[:0]
	i, j := n-1, m-1
	path = append(path, Pair{i, j})
	for i > 0 || j > 0 {
		switch {
		case i == 0:
			j--
		case j == 0:
			i--
		default:
			diag := d[idx(i-1, j-1)]
			up := d[idx(i-1, j)]
			left := d[idx(i, j-1)]
			if diag <= up && diag <= left {
				i--
				j--
			} else if up <= left {
				i--
			} else {
				j--
			}
		}
		path = append(path, Pair{i, j})
	}
	for a, b := 0, len(path)-1; a < b; a, b = a+1, b-1 {
		path[a], path[b] = path[b], path[a]
	}
	return d[idx(n-1, m-1)], path, nil
}

// FastDistance computes the FastDTW approximation iteratively with the
// multilevel pyramid held in workspace scratch, so steady-state calls
// allocate nothing. It returns exactly what the textbook recursive
// FastDTW (coarsen, recurse, project the path, refine) returns: the same
// shrink levels, the same projected windows, the same DP — only the
// buffer lifetimes differ.
func (ws *Workspace) FastDistance(x, y []float64, radius int) (float64, error) {
	if len(x) == 0 || len(y) == 0 {
		return 0, ErrEmptySeries
	}
	if radius < 0 {
		radius = 0
	}
	minSize := radius + 2
	if len(x) <= minSize || len(y) <= minSize {
		return ws.Distance(x, y)
	}

	// Plan the pyramid: level 0 is the input; each level halves both
	// series (ceil division, matching reduceByHalfInto); shrinking stops
	// once either side is small enough for exact DTW — the recursion's
	// base case.
	sizes := append(ws.sizes[:0], lvlDims{len(x), len(y)})
	total := 0
	for sizes[len(sizes)-1].nx > minSize && sizes[len(sizes)-1].ny > minSize {
		nx := (sizes[len(sizes)-1].nx + 1) / 2
		ny := (sizes[len(sizes)-1].ny + 1) / 2
		sizes = append(sizes, lvlDims{nx, ny})
		total += nx + ny
	}
	ws.sizes = sizes
	levels := len(sizes)

	// Materialize the reduced levels into the arena.
	ws.arena = growF64(ws.arena, total)
	if cap(ws.lvlX) < levels {
		ws.lvlX = make([][]float64, levels)
		ws.lvlY = make([][]float64, levels)
	}
	lvlX := ws.lvlX[:levels]
	lvlY := ws.lvlY[:levels]
	lvlX[0], lvlY[0] = x, y
	off := 0
	for k := 1; k < levels; k++ {
		lvlX[k] = ws.arena[off : off : off+sizes[k].nx]
		off += sizes[k].nx
		lvlY[k] = ws.arena[off : off : off+sizes[k].ny]
		off += sizes[k].ny
		lvlX[k] = reduceByHalfInto(lvlX[k], lvlX[k-1])
		lvlY[k] = reduceByHalfInto(lvlY[k], lvlY[k-1])
	}

	// Solve the coarsest level exactly, then project each warp path up
	// one level, refine inside the expanded window, and repeat. The top
	// level needs no path — just the distance.
	base := levels - 1
	if ws.pathA == nil {
		ws.pathA = make(Path, 0, sizes[base].nx+sizes[base].ny)
	}
	dist, path, err := ws.fullPath(lvlX[base], lvlY[base], ws.pathA)
	if err != nil {
		return 0, err
	}
	ws.pathA = path[:0]
	for k := base - 1; k >= 0; k-- {
		n, m := sizes[k].nx, sizes[k].ny
		ws.winLo = growInt(ws.winLo, n)
		ws.winHi = growInt(ws.winHi, n)
		ws.win.lo, ws.win.hi = ws.winLo, ws.winHi
		expandedWindowFill(&ws.win, path, m, radius)
		var next Path
		dist, next, err = ws.constrained(lvlX[k], lvlY[k], &ws.win, k > 0, ws.pathB)
		if err != nil {
			return 0, err
		}
		ws.pathB = path[:0] // retire the lower level's path buffer
		path = next
	}
	if path != nil {
		ws.pathA = path[:0]
	}
	return dist, nil
}

// reduceByHalfInto halves the resolution of src by averaging adjacent
// pairs into dst (appended from dst[:0]); an odd trailing element is
// kept as-is.
func reduceByHalfInto(dst, src []float64) []float64 {
	dst = dst[:0]
	for i := 0; i+1 < len(src); i += 2 {
		dst = append(dst, (src[i]+src[i+1])/2)
	}
	if len(src)%2 == 1 {
		dst = append(dst, src[len(src)-1])
	}
	return dst
}
