package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"voiceprint/internal/lda"
	"voiceprint/internal/timeseries"
	"voiceprint/internal/trace"
	"voiceprint/internal/vanet"
)

// refPair is one pair of a reference round: the per-sample banded DTW
// distance, its Equation 8 value, the pair's adaptive cap, and the
// verdict.
type refPair struct {
	a, b     vanet.NodeID
	raw      float64
	norm     float64
	noiseCap float64
	flagged  bool
}

// refRoundResult is a reference round's outcome.
type refRoundResult struct {
	considered []vanet.NodeID
	pairs      []refPair
	suspects   map[vanet.NodeID]bool
}

// refRound is Algorithm 1 written out directly, the reference the
// optimized compare phase must agree with: collection (sample floor and
// median-RSSI floor), the Equation 7 Z-score and the AR(1) noise
// estimate per identity, full banded DTW for every pair, the Equation 8
// min-max normalization, both caps with the zero-cap fail-open, the
// degenerate-round rule, and the boundary. It uses no pools, pruning,
// goroutines or scratch, and writes every product float64(x*y), so its
// distances are the bits the detector's arithmetic must produce. cfg
// holds New's defaults already applied.
func refRound(cfg Config, series map[vanet.NodeID]*timeseries.Series, density float64) refRoundResult {
	out := refRoundResult{suspects: make(map[vanet.NodeID]bool)}
	var zs [][]float64
	var noiseVar []float64
	ids := make([]vanet.NodeID, 0, len(series))
	for id := range series {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		s := series[id]
		if s == nil || s.Len() < cfg.MinSamples {
			continue
		}
		vals := s.AppendValues(nil)
		if !zeroSentinel(cfg.MinMedianRSSIDBm) && refMedian(vals) < cfg.MinMedianRSSIDBm {
			continue
		}
		out.considered = append(out.considered, id)
		z := refZScore(vals)
		nu := refNoise(z)
		zs = append(zs, z)
		noiseVar = append(noiseVar, float64(nu*nu))
	}
	if len(out.considered) < 3 {
		return out
	}
	for i := range out.considered {
		for j := i + 1; j < len(out.considered); j++ {
			p := refPair{a: out.considered[i], b: out.considered[j]}
			p.raw = refBandedDTW(zs[i], zs[j], cfg.BandRadius) / float64(max(len(zs[i]), len(zs[j])))
			if cfg.AdaptiveCapKappa > 0 {
				p.noiseCap = float64(cfg.AdaptiveCapKappa * (noiseVar[i] + noiseVar[j]))
			}
			out.pairs = append(out.pairs, p)
		}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range out.pairs {
		lo, hi = min(lo, p.raw), max(hi, p.raw)
	}
	degenerate := cfg.AdaptiveCapKappa > 0
	for k := range out.pairs {
		p := &out.pairs[k]
		if lo < hi {
			p.norm = (p.raw - lo) / (hi - lo)
		}
		degenerate = degenerate && !(p.raw > p.noiseCap)
	}
	threshold := float64(cfg.Boundary.K*density) + cfg.Boundary.B
	for k := range out.pairs {
		p := &out.pairs[k]
		if cfg.AbsoluteRawCap > 0 && p.raw > cfg.AbsoluteRawCap {
			continue
		}
		if p.noiseCap > 0 && p.raw > p.noiseCap {
			continue
		}
		if degenerate || p.norm <= threshold {
			p.flagged = true
			out.suspects[p.a] = true
			out.suspects[p.b] = true
		}
	}
	return out
}

// refMedian is the median of a sorted copy of xs: the middle value, or
// the mean of the two middle values, each halved before the add.
func refMedian(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return float64(s[n/2-1]*0.5) + float64(s[n/2]*0.5)
}

// refZScore is Equation 7 as the detector applies it: each value minus
// the mean, over three population standard deviations; a constant
// series maps to zeros.
func refZScore(xs []float64) []float64 {
	n := float64(len(xs))
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mu := sum / n
	var ss float64
	for _, x := range xs {
		d := x - mu
		ss += float64(d * d)
	}
	sigma := math.Sqrt(ss / n)
	z := make([]float64, len(xs))
	if sigma > 0 {
		for i, x := range xs {
			z[i] = (x - mu) / float64(3*sigma)
		}
	}
	return z
}

// refNoise is the per-identity noise level behind the adaptive cap: the
// AR(1) method-of-moments estimate from the robust variances of lag-1,
// 2 and 3 differences, or, below 8 samples, the median absolute first
// difference over 0.6745·√2.
func refNoise(z []float64) float64 {
	lagVar := func(lag int) float64 {
		var d []float64
		for i := lag; i < len(z); i++ {
			d = append(d, math.Abs(z[i]-z[i-lag]))
		}
		sd := refMedian(d) / 0.6745
		return float64(sd * sd)
	}
	if len(z) < 8 {
		if len(z) < 3 {
			return 0
		}
		var d []float64
		for i := 1; i < len(z); i++ {
			d = append(d, math.Abs(z[i]-z[i-1]))
		}
		return refMedian(d) / 0.6745 / math.Sqrt2
	}
	v1, v2, v3 := lagVar(1), lagVar(2), lagVar(3)
	d21, d32 := v2-v1, v3-v2
	if d21 <= 1e-12 || d32 <= 1e-12 {
		return math.Sqrt(math.Max(v1/2, 0))
	}
	rho := min(d32/d21, 0.995)
	return math.Sqrt(max(v1/2-d21/float64(2*rho), 0))
}

// refBandedDTW is the squared-cost DTW distance under the Sakoe-Chiba
// band of radius r: row i admits columns from its center i·(m−1)/(n−1)
// widened by r and clamped, starting at most one past the previous
// row's end, and every admitted cell takes the strictly smallest of its
// admitted up, diagonal and left neighbours, in that order, plus the
// squared difference.
func refBandedDTW(x, y []float64, r int) float64 {
	n, m := len(x), len(y)
	prev, cur := make([]float64, m), make([]float64, m)
	loPrev, hiPrev := 0, -1
	for i := 0; i < n; i++ {
		c := 0
		if n > 1 {
			c = i * (m - 1) / (n - 1)
		}
		lo, hi := min(max(c-r, 0), hiPrev+1), min(c+r, m-1)
		if i == 0 {
			lo, hi = 0, min(r, m-1)
			if n == 1 {
				hi = m - 1
			}
		}
		for j := lo; j <= hi; j++ {
			best := math.Inf(1)
			if i == 0 && j == 0 {
				best = 0
			}
			if j >= loPrev && j <= hiPrev && prev[j] < best {
				best = prev[j]
			}
			if j-1 >= loPrev && j-1 <= hiPrev && prev[j-1] < best {
				best = prev[j-1]
			}
			if j > lo && cur[j-1] < best {
				best = cur[j-1]
			}
			d := x[i] - y[j]
			cur[j] = best + float64(d*d)
		}
		prev, cur = cur, prev
		loPrev, hiPrev = lo, hi
	}
	return prev[m-1]
}

// checkVsReference fails unless res, a pruned Detect round, agrees with
// the reference round: the same considered identities, pairs, caps,
// flags and suspects; unpruned pairs carry the reference's raw and
// normalized distances bit for bit, pruned pairs a raw bound at or
// below the reference distance. It returns the pruned pair count.
func checkVsReference(t *testing.T, what string, ref refRoundResult, res *Result) int {
	t.Helper()
	if !slices.Equal(res.Considered, ref.considered) {
		t.Fatalf("%s: considered %v, reference %v", what, res.Considered, ref.considered)
	}
	if !reflect.DeepEqual(res.Suspects, ref.suspects) {
		t.Fatalf("%s: suspects %v, reference %v", what, res.Suspects, ref.suspects)
	}
	if len(res.Pairs) != len(ref.pairs) {
		t.Fatalf("%s: %d pairs, reference %d", what, len(res.Pairs), len(ref.pairs))
	}
	pruned := 0
	for k, p := range res.Pairs {
		r := ref.pairs[k]
		if p.A != r.a || p.B != r.b {
			t.Fatalf("%s: pair %d is %d/%d, reference %d/%d", what, k, p.A, p.B, r.a, r.b)
		}
		if p.Flagged != r.flagged || math.Float64bits(p.NoiseCap) != math.Float64bits(r.noiseCap) {
			t.Fatalf("%s: pair %d/%d flagged %v cap %v, reference flagged %v cap %v",
				what, p.A, p.B, p.Flagged, p.NoiseCap, r.flagged, r.noiseCap)
		}
		if p.Pruned {
			pruned++
			if !(p.Raw <= r.raw) {
				t.Fatalf("%s: pruned pair %d/%d stores %v above its distance %v", what, p.A, p.B, p.Raw, r.raw)
			}
			continue
		}
		if math.Float64bits(p.Raw) != math.Float64bits(r.raw) || math.Float64bits(p.Normalized) != math.Float64bits(r.norm) {
			t.Fatalf("%s: pair %d/%d raw %v normalized %v, reference %v and %v",
				what, p.A, p.B, p.Raw, p.Normalized, r.raw, r.norm)
		}
	}
	return pruned
}

// TestDetectMatchesReference checks the pruned compare phase against
// refRound on every detection round of the six scorecard campaigns
// (same kinds, seed, periods, boundary and confirmation as the
// scorecard): each receiver's monitor runs the round with pruning at
// one worker, and the window it evaluated is run again through Detect
// at four workers. The race detector's slowdown would make the sweep
// take minutes, so it runs without -race only.
func TestDetectMatchesReference(t *testing.T) {
	if raceEnabled {
		t.Skip("the campaign sweep runs without -race")
	}
	boundary := lda.Boundary{K: 0.000022, B: 0.0067}
	var rounds, pairs, pruned, flagged int
	for _, kind := range vanet.CampaignKinds() {
		camp, err := vanet.DefaultCampaign(kind)
		if err != nil {
			t.Fatal(err)
		}
		records, _, err := trace.CampaignRecords(camp, 1337)
		if err != nil {
			t.Fatal(err)
		}
		period := 20 * time.Second
		if kind == vanet.KindDenseHighway {
			period = 15 * time.Second
		}
		cfg := DefaultConfig(boundary)
		cfg.LBPrune = true
		cfg.Workers = 1
		cfg4 := cfg
		cfg4.Workers = 4
		det4, err := New(cfg4)
		if err != nil {
			t.Fatal(err)
		}
		mons := make(map[vanet.NodeID]*Monitor)
		var recvs []vanet.NodeID
		round := func(at time.Duration) {
			for _, recv := range recvs {
				m := mons[recv]
				res, err := m.DetectAt(at)
				if err != nil {
					t.Fatal(err)
				}
				m.mu.Lock()
				window := make(map[vanet.NodeID]*timeseries.Series, len(m.input))
				for id, s := range m.input {
					window[id] = s.Clone()
				}
				m.mu.Unlock()
				ref := refRound(det4.Config(), window, res.Density)
				what := func(workers int) string {
					return fmt.Sprintf("%s receiver %d at %v, %d workers", kind, recv, at, workers)
				}
				pruned += checkVsReference(t, what(1), ref, res)
				res4, err := det4.Detect(window, res.Density)
				if err != nil {
					t.Fatal(err)
				}
				checkVsReference(t, what(4), ref, res4)
				rounds++
				pairs += len(ref.pairs)
				for _, p := range ref.pairs {
					if p.flagged {
						flagged++
					}
				}
			}
		}
		next := period
		for _, r := range records {
			for r.T >= next {
				round(next)
				next += period
			}
			m := mons[r.Receiver]
			if m == nil {
				if m, err = NewMonitor(MonitorConfig{
					Detector:      cfg,
					ConfirmWindow: 3,
					ConfirmNeed:   2,
					MaxRangeM:     camp.MaxRangeM,
				}); err != nil {
					t.Fatal(err)
				}
				mons[r.Receiver] = m
				recvs = append(recvs, r.Receiver)
				slices.Sort(recvs)
			}
			if err := m.Observe(r.Sender, r.T, r.RSSI); err != nil {
				t.Fatal(err)
			}
		}
		round(next)
	}
	t.Logf("%d rounds, %d pairs, %d pruned, %d flagged", rounds, pairs, pruned, flagged)
	if pruned == 0 || flagged == 0 {
		t.Fatalf("the sweep pruned %d and flagged %d pairs; the comparison is vacuous", pruned, flagged)
	}
}
