package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/dtw"
	"voiceprint/internal/lda"
	"voiceprint/internal/timeseries"
	"voiceprint/internal/vanet"
)

// ComplexityResult reproduces the Section VI-B computational estimate:
// the paper measured 0.1995 ms to compare two 200-sample RSSI series and
// ~630 ms for a full 80-neighbor detection round (3160 pairs).
type ComplexityResult struct {
	// PairExact, PairFast and PairBanded time one 200-sample comparison.
	PairExact, PairFast, PairBanded time.Duration
	// Round80 times a full Detect over 80 identities.
	Round80 time.Duration
	// Pairs80 is the comparison count of that round (80*79/2 = 3160).
	Pairs80 int
}

// Complexity measures comparison and round times on this machine.
func Complexity(seed int64) (*ComplexityResult, error) {
	rng := rand.New(rand.NewSource(seed))
	mkSeries := func() []float64 {
		s := timeseries.GenRandomWalk(200, -75, 1.5, -95, -40, 100*time.Millisecond, rng)
		z, err := s.ZScoreNormalize()
		if err != nil {
			return s.Values()
		}
		return z.Values()
	}
	x, y := mkSeries(), mkSeries()

	timeIt := func(iters int, f func() error) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / time.Duration(iters), nil
	}

	res := &ComplexityResult{}
	var err error
	res.PairExact, err = timeIt(200, func() error {
		_, err := dtw.Distance(x, y, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.PairFast, err = timeIt(200, func() error {
		_, err := dtw.FastDistance(x, y, 4, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	// The detector's kernel: banded DTW at its default radius on one
	// reused workspace, as a compare worker runs it.
	ws := dtw.NewWorkspace()
	res.PairBanded, err = timeIt(200, func() error {
		_, err := ws.BandedDistance(x, y, 20, nil)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Full 80-neighbor round through the production detector.
	series := make(map[vanet.NodeID]*timeseries.Series, 80)
	for i := 0; i < 80; i++ {
		series[vanet.NodeID(i+1)] = timeseries.GenRandomWalk(
			200, -75, 1.5, -94, -40, 100*time.Millisecond, rng)
	}
	cfg := core.DefaultConfig(lda.Boundary{K: 0.0005, B: 0.05})
	cfg.MinMedianRSSIDBm = 0
	det, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	round, err := det.Detect(series, 100)
	if err != nil {
		return nil, err
	}
	res.Round80 = time.Since(start)
	res.Pairs80 = len(round.Pairs)
	return res, nil
}

// Render formats the comparison against the paper's numbers.
func (r *ComplexityResult) Render() string {
	t := &Table{
		Title:   "Section VI-B — computational cost (paper: 0.1995 ms/pair, ~630 ms for 80 neighbors)",
		Columns: []string{"operation", "measured"},
	}
	t.AddRow("exact DTW, one 200-sample pair", r.PairExact.String())
	t.AddRow("FastDTW (r=4), one pair", r.PairFast.String())
	t.AddRow("banded DTW (r=20), one pair", r.PairBanded.String())
	t.AddRow(fmt.Sprintf("full detection round, 80 identities (%d pairs)", r.Pairs80),
		r.Round80.String())
	return t.String()
}
