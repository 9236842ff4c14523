package gps

import (
	"math"
	"testing"
	"time"
)

func TestParamsValidate(t *testing.T) {
	if err := (Params{}).Validate(); err != nil {
		t.Errorf("zero params invalid: %v", err)
	}
	if err := (Params{BiasStdM: -1}).Validate(); err == nil {
		t.Error("negative bias should error")
	}
	if err := (Params{JitterStdM: -1}).Validate(); err == nil {
		t.Error("negative jitter should error")
	}
	if err := (Params{BiasTau: -time.Second}).Validate(); err == nil {
		t.Error("negative tau should error")
	}
}

// horizontalRMS is the model's steady-state horizontal RMS error.
func horizontalRMS(p Params) float64 {
	d := p.withDefaults()
	perAxis := d.BiasStdM*d.BiasStdM + d.JitterStdM*d.JitterStdM
	return math.Sqrt(2 * perAxis)
}

func TestHorizontalRMSMatchesTableII(t *testing.T) {
	rms := horizontalRMS(Params{})
	// Table II: horizontal position accuracy < 2.5 m autonomous.
	if rms < 1.5 || rms > 2.5 {
		t.Errorf("default horizontal RMS %v outside the Table II band", rms)
	}
}

func TestFixErrorStatistics(t *testing.T) {
	r, err := NewReceiver(Params{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	var sumSq float64
	const n = 20000
	for i := 0; i < n; i++ {
		t0 := time.Duration(i) * 100 * time.Millisecond
		x, y := r.Fix(t0, 100, 200)
		dx, dy := x-100, y-200
		sumSq += dx*dx + dy*dy
	}
	rms := math.Sqrt(sumSq / n)
	want := horizontalRMS(Params{})
	if math.Abs(rms-want) > 0.5 {
		t.Errorf("empirical RMS %v, want ~%v", rms, want)
	}
}

func TestBiasIsCorrelated(t *testing.T) {
	r, err := NewReceiver(Params{}, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Consecutive fixes 100 ms apart share almost the same bias: their
	// difference should be dominated by jitter (~0.57 m RMS), far below
	// the full error RMS (~2.2 m).
	var diffSq float64
	prevX, prevY := r.Fix(0, 0, 0)
	const n = 5000
	for i := 1; i <= n; i++ {
		x, y := r.Fix(time.Duration(i)*100*time.Millisecond, 0, 0)
		dx, dy := x-prevX, y-prevY
		diffSq += dx*dx + dy*dy
		prevX, prevY = x, y
	}
	stepRMS := math.Sqrt(diffSq / n)
	if stepRMS > 1.2 {
		t.Errorf("step RMS %v too large: bias should be correlated across fixes", stepRMS)
	}
}

func TestNewReceiverRejectsBadParams(t *testing.T) {
	if _, err := NewReceiver(Params{BiasStdM: -1}, 1); err == nil {
		t.Error("expected error")
	}
}
