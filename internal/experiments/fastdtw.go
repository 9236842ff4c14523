package experiments

import (
	"math/rand"
	"time"

	"voiceprint/internal/dtw"
	"voiceprint/internal/timeseries"
)

// FastDTWRow is one radius's accuracy/time trade-off.
type FastDTWRow struct {
	Radius        int
	MeanRelError  float64
	MeanTime      time.Duration
	ExactMeanTime time.Duration
}

// FastDTWResult quantifies the Section IV-B claim that FastDTW reaches
// near-exact accuracy in linear time ("achieves O(N) time complexity
// while has only 1% loss of accuracy").
type FastDTWResult struct {
	SeriesLen int
	Trials    int
	Rows      []FastDTWRow
}

// FastDTWAccuracy sweeps the radius on RSSI-like random-walk pairs.
func FastDTWAccuracy(seed int64, seriesLen, trials int) (*FastDTWResult, error) {
	if seriesLen == 0 {
		seriesLen = 200
	}
	if trials == 0 {
		trials = 30
	}
	rng := rand.New(rand.NewSource(seed))
	type pair struct{ x, y []float64 }
	pairs := make([]pair, trials)
	for i := range pairs {
		pairs[i] = pair{
			x: timeseries.GenRandomWalk(seriesLen, -75, 1.5, -95, -40, 100*time.Millisecond, rng).Values(),
			y: timeseries.GenRandomWalk(seriesLen, -75, 1.5, -95, -40, 100*time.Millisecond, rng).Values(),
		}
	}
	exact := make([]float64, trials)
	exactStart := time.Now()
	for i, p := range pairs {
		d, err := dtw.Distance(p.x, p.y)
		if err != nil {
			return nil, err
		}
		exact[i] = d
	}
	exactMean := time.Since(exactStart) / time.Duration(trials)

	res := &FastDTWResult{SeriesLen: seriesLen, Trials: trials}
	for _, radius := range []int{1, 2, 4, 8, 16} {
		var errSum float64
		start := time.Now()
		for i, p := range pairs {
			d, err := dtw.FastDistance(p.x, p.y, radius)
			if err != nil {
				return nil, err
			}
			if exact[i] > 0 {
				errSum += (d - exact[i]) / exact[i]
			}
		}
		res.Rows = append(res.Rows, FastDTWRow{
			Radius:        radius,
			MeanRelError:  errSum / float64(trials),
			MeanTime:      time.Since(start) / time.Duration(trials),
			ExactMeanTime: exactMean,
		})
	}
	return res, nil
}

// Render formats the trade-off table.
func (r *FastDTWResult) Render() string {
	t := &Table{
		Title:   "Section IV-B — FastDTW accuracy/time vs exact DTW (independent random walks; worst case)",
		Columns: []string{"radius", "mean rel. error", "mean time", "exact time"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Radius, row.MeanRelError, row.MeanTime.String(), row.ExactMeanTime.String())
	}
	return t.String()
}
