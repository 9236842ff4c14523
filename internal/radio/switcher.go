package radio

import (
	"errors"
	"math/rand"
	"time"
)

// Switcher is a Channel that cycles through a list of models, advancing
// every Period of simulation time. It reproduces the paper's Figure 11b
// scenario: "we set a timer in NS2 and modify the parameters of the
// propagation model periodically" (Table V: model change period 30 s).
// Detection methods that bake in one model's parameters (CPVSAD) degrade;
// Voiceprint, which never consults a model, does not.
type Switcher struct {
	models []Model
	period time.Duration
}

var _ Channel = (*Switcher)(nil)

// NewSwitcher builds a Switcher. It requires at least one model and a
// positive period.
func NewSwitcher(period time.Duration, models ...Model) (*Switcher, error) {
	if len(models) == 0 {
		return nil, errors.New("radio: switcher needs at least one model")
	}
	if period <= 0 {
		return nil, errors.New("radio: switcher period must be positive")
	}
	cp := make([]Model, len(models))
	copy(cp, models)
	return &Switcher{models: cp, period: period}, nil
}

// ModelAt returns the model active at simulation time t.
func (s *Switcher) ModelAt(t time.Duration) Model {
	if t < 0 {
		t = 0
	}
	idx := int(t/s.period) % len(s.models)
	return s.models[idx]
}

// SamplePathLossDB implements Channel.
func (s *Switcher) SamplePathLossDB(t time.Duration, d float64, rng *rand.Rand) float64 {
	return s.ModelAt(t).SamplePathLossDB(d, rng)
}

// MeanPathLossDB implements Channel.
func (s *Switcher) MeanPathLossDB(t time.Duration, d float64) float64 {
	return s.ModelAt(t).MeanPathLossDB(d)
}

// ShadowSigmaDB implements Channel.
func (s *Switcher) ShadowSigmaDB(t time.Duration, d float64) float64 {
	return s.ModelAt(t).ShadowSigmaDB(d)
}
