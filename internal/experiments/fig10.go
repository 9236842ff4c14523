package experiments

import (
	"errors"
	"fmt"
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/lda"
)

// Fig10Config parameterizes the decision-boundary training of Figure 10:
// "several simulations for different traffic densities (5 simulation runs
// at each density)", harvesting every pairwise DTW distance with its
// ground-truth label, then LDA.
type Fig10Config struct {
	// Densities to train over; nil means {10, 20, ..., 100}.
	Densities []float64
	// RunsPerDensity; zero means 5 (the paper's count).
	RunsPerDensity int
	// Seed for the run family.
	Seed int64
	// Duration per run; zero means 100 s.
	Duration time.Duration
	// MaxObservers caps recording receivers per run (memory knob).
	MaxObservers int
}

// Fig10Result is the trained boundary plus the training scatter summary.
type Fig10Result struct {
	Boundary lda.Boundary
	// AbsoluteCap is the trained absolute per-sample distance cap the
	// detector ANDs with the boundary (see core.Config.AbsoluteRawCap).
	AbsoluteCap float64
	// Points is the full labelled scatter (Figure 10's dots, in the
	// normalized-distance plane), plus raw distances.
	Points []PairSample
	// SybilCount and NormalCount split the scatter.
	SybilCount, NormalCount int
	// TrainAccuracy is the boundary's accuracy on its own training set
	// (normalized plane).
	TrainAccuracy float64
}

// capFlagWeight is the false-flag cost used to train the absolute cap.
const capFlagWeight = 100

// Fig10 harvests training data across the density sweep and trains the
// LDA boundary (paper result: k = 0.00054, b = 0.0483; ours differs in
// absolute value because the distance distribution is the simulator's,
// but plays the same role).
func Fig10(cfg Fig10Config) (*Fig10Result, error) {
	if len(cfg.Densities) == 0 {
		cfg.Densities = []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	}
	if cfg.RunsPerDensity == 0 {
		cfg.RunsPerDensity = 5
	}
	// Harvesting uses a detector with a disabled boundary (nothing is
	// flagged; we only want the pair distances).
	det, err := core.New(core.DefaultConfig(lda.Boundary{K: 0, B: -1}))
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{}
	seed := cfg.Seed
	for _, den := range cfg.Densities {
		for r := 0; r < cfg.RunsPerDensity; r++ {
			seed++
			run, err := RunHighway(SimParams{
				DensityPerKm: den,
				Seed:         seed,
				Duration:     cfg.Duration,
				MaxObservers: cfg.MaxObservers,
			})
			if err != nil {
				return nil, fmt.Errorf("fig10: density %v run %d: %w", den, r, err)
			}
			_, points, err := VoiceprintRounds(run, det, 0)
			if err != nil {
				return nil, fmt.Errorf("fig10: density %v run %d: %w", den, r, err)
			}
			res.Points = append(res.Points, points...)
		}
	}
	for _, p := range res.Points {
		if p.SybilPair {
			res.SybilCount++
		} else {
			res.NormalCount++
		}
	}
	if res.SybilCount == 0 || res.NormalCount == 0 {
		return nil, errors.New("fig10: training harvest missing a class")
	}
	b, err := lda.TrainLine(NormalizedPoints(res.Points), 8)
	if err != nil {
		return nil, err
	}
	res.Boundary = b
	res.TrainAccuracy = lda.Accuracy(b, NormalizedPoints(res.Points))
	// The absolute cap is a single raw-distance threshold; the heavy flag
	// weight keeps the per-pair false-flag rate near zero, because a
	// round of N identities holds O(N^2) normal pairs and Algorithm 1
	// convicts both members of any flagged pair (see lda.TrainLine docs).
	capBoundary, err := lda.TrainLineWeighted(RawPoints(res.Points), 1, capFlagWeight)
	if err != nil {
		return nil, err
	}
	res.AbsoluteCap = capBoundary.B
	return res, nil
}

// Render formats the result like the paper reports it.
func (r *Fig10Result) Render() string {
	t := &Table{
		Title:   "Figure 10 — LDA decision boundary on the (density, DTW distance) plane",
		Columns: []string{"quantity", "value"},
	}
	t.AddRow("training pairs (sybil)", r.SybilCount)
	t.AddRow("training pairs (normal)", r.NormalCount)
	t.AddRow("slope k", fmt.Sprintf("%.6f", r.Boundary.K))
	t.AddRow("intercept b", fmt.Sprintf("%.6f", r.Boundary.B))
	t.AddRow("absolute cap", fmt.Sprintf("%.6f", r.AbsoluteCap))
	t.AddRow("training accuracy", fmt.Sprintf("%.4f", r.TrainAccuracy))
	t.AddRow("paper reference", "k=0.00054, b=0.0483")
	return t.String()
}
