package stats

import (
	"errors"
	"fmt"
	"strings"
)

// Histogram is a fixed-width binning of a sample, used to render the RSSI
// distributions of Figure 5 as text and to feed the chi-square normality
// test.
type Histogram struct {
	// Lo is the left edge of the first bin.
	Lo float64
	// Width is the width of every bin.
	Width float64
	// Counts holds one entry per bin.
	Counts []int
	// Total is the number of samples binned (sum of Counts).
	Total int
}

// NewHistogram bins xs into nbins equal-width bins spanning [min, max].
// Values equal to max land in the last bin. It returns an error for empty
// samples, nbins < 1, or zero-range samples (all values identical), for
// which a histogram is degenerate.
func NewHistogram(xs []float64, nbins int) (*Histogram, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	if nbins < 1 {
		return nil, errors.New("stats: histogram needs at least one bin")
	}
	lo, hi, err := MinMax(xs)
	if err != nil {
		return nil, err
	}
	// Not-strictly-less covers the all-identical case exactly and keeps
	// a NaN range on the degenerate one-bin path instead of a NaN width.
	if !(lo < hi) {
		// Degenerate but common for clipped RSSI floors: one bin holds all.
		h := &Histogram{Lo: lo, Width: 1, Counts: make([]int, nbins), Total: len(xs)}
		h.Counts[0] = len(xs)
		return h, nil
	}
	width := (hi - lo) / float64(nbins)
	h := &Histogram{Lo: lo, Width: width, Counts: make([]int, nbins), Total: len(xs)}
	for _, x := range xs {
		idx := int((x - lo) / width)
		if idx >= nbins {
			idx = nbins - 1
		}
		if idx < 0 {
			idx = 0
		}
		h.Counts[idx]++
	}
	return h, nil
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.Width
}

// Render draws the histogram as fixed-width text with at most barWidth
// characters per bar, one bin per line. It is used by the experiment
// harness to show Figure 5-style distributions in a terminal.
func (h *Histogram) Render(barWidth int) string {
	if barWidth < 1 {
		barWidth = 40
	}
	maxCount := 0
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := 0
		if maxCount > 0 {
			bar = c * barWidth / maxCount
		}
		fmt.Fprintf(&b, "%9.2f | %-*s %d\n", h.BinCenter(i), barWidth, strings.Repeat("#", bar), c)
	}
	return b.String()
}
