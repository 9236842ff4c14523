package main

import (
	"encoding/json"
	"fmt"
	"syscall"
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/metrics"
	"voiceprint/internal/scorecard"
	"voiceprint/internal/service"
	"voiceprint/internal/trace"
	"voiceprint/internal/vanet"
)

// workload is one campaign replayed through the daemon.
type workload struct {
	name string
	kind string // vanet campaign kind
	// period is the stream-time spacing of detection boundaries, as the
	// scorecard grades the campaign.
	period time.Duration
	// fused runs scorecard.FusionConfig (position signal + coordinator);
	// durable turns the WAL on and crashes the daemon at the midpoint.
	fused, durable bool
	// campaigns is how many campaigns a run replays: the first realized
	// at --seed, the others at seeds derived from it. Round cost varies
	// from one campaign to the next by about a tenth, so spreading a run
	// over several keeps one seed's luck from deciding the figures.
	campaigns int
	// replaySeconds is the wall time of one live replay on the 2-CPU host
	// the benchmark was defined on. A run replays each campaign
	// max(1, round(seconds / (campaigns·replaySeconds))) times, so its
	// sample count — and with it the tail percentile — depends only on
	// --seconds, never on how fast the code under test is.
	replaySeconds float64
}

var workloads = []workload{
	{name: "fleet-ingest", kind: vanet.KindSingleAttacker, period: 20 * time.Second, campaigns: 6, replaySeconds: 2.5},
	{name: "dense-compare", kind: vanet.KindDenseHighway, period: 15 * time.Second, campaigns: 8, replaySeconds: 2.2},
	{name: "fused-durable", kind: vanet.KindColludingFleet, period: 20 * time.Second, fused: true, durable: true, campaigns: 6, replaySeconds: 3.2},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// segment is a run of lines followed by one detection boundary.
type segment struct {
	from, to int           // byte range [from, to) of the lines
	lines    int           // how many lines the range holds
	boundary time.Duration // stream time of the boundary fired after them
}

// input is a campaign pre-encoded for replay: every trace record as one
// NDJSON observation line, back to back in one buffer, so the generator
// only writes bytes.
type input struct {
	lines    []byte // off the Go heap, see offHeap
	count    int    // lines in the campaign
	segments []segment
	// crash is the byte offset after which the durable workload crashes
	// the daemon, and crashLines the lines before it (-1: never).
	crash, crashLines int
	truth             vanet.Truth
	duration          time.Duration // campaign length; later boundaries are not graded
	maxRangeM         float64
}

// buildInput realizes the workload's campaign at seed and encodes it the
// way the scorecard's replay driver does (schema-1 lines for records
// with a claimed position).
func buildInput(w workload, seed int64) (*input, error) {
	cfg, err := vanet.DefaultCampaign(w.kind)
	if err != nil {
		return nil, err
	}
	records, truth, err := trace.CampaignRecords(cfg, seed)
	if err != nil {
		return nil, err
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("%s: campaign at seed %d produced no records", w.name, seed)
	}
	in := &input{
		count:      len(records),
		crash:      -1,
		crashLines: -1,
		truth:      truth,
		duration:   time.Duration(cfg.DurationS * float64(time.Second)),
		maxRangeM:  cfg.MaxRangeM,
	}
	var lines []byte
	from, first, nb := 0, 0, w.period
	for i, rec := range records {
		for rec.T >= nb {
			in.segments = append(in.segments, segment{from: from, to: len(lines), lines: i - first, boundary: nb})
			from, first, nb = len(lines), i, nb+w.period
		}
		if w.durable && i == len(records)/2 {
			in.crash, in.crashLines = len(lines), i
		}
		o := service.Observation{Recv: rec.Receiver, Sender: rec.Sender, TMs: rec.T.Milliseconds(), RSSI: rec.RSSI}
		if rec.Pos != nil {
			o.Schema = 1
			o.Pos = &service.Position{X: rec.Pos.X, Y: rec.Pos.Y}
		}
		line, err := json.Marshal(o)
		if err != nil {
			return nil, err
		}
		lines = append(append(lines, line...), '\n')
	}
	in.segments = append(in.segments, segment{from: from, to: len(lines), lines: len(records) - first, boundary: nb})
	if in.lines, err = offHeap(lines); err != nil {
		return nil, err
	}
	return in, nil
}

// offHeap copies b into an anonymous memory mapping. A run holds several
// campaigns' lines, hundreds of MB; on the Go heap they would raise the
// collector's heap goal far above what the daemon's own heap sets, and
// the daemon would barely collect garbage while measured. The mapping
// lives until the process exits.
func offHeap(b []byte) ([]byte, error) {
	if len(b) == 0 {
		return b, nil
	}
	m, err := syscall.Mmap(-1, 0, len(b), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map input: %w", err)
	}
	copy(m, b)
	return m, nil
}

// graded reports whether a boundary's rounds count towards DR and FPR.
// The replay fires one trailing boundary past the end of the campaign;
// its window is clamped onto data an earlier boundary already graded, so
// the scorecard leaves it out and so does the benchmark.
func (in *input) graded(seg segment) bool { return seg.boundary <= in.duration }

// daemonConfig is the scorecard's daemon configuration for the workload
// with the compare phase pinned to one worker (see README.md). The plain
// workloads take scorecard.FusionConfig and drop its fusion parts, so
// both share one source of truth for boundary, confirmation, pruning and
// buffering.
func daemonConfig(w workload, maxRangeM float64) (service.Config, error) {
	cfg, err := scorecard.FusionConfig(maxRangeM)
	if err != nil {
		return service.Config{}, err
	}
	if !w.fused {
		cfg.Registry.Monitor.Fusion = core.FusionOptions{}
		cfg.Coordinator = nil
	}
	cfg.Registry.Monitor.Detector.Workers = 1
	cfg.Network, cfg.Addr = "tcp", "127.0.0.1:0"
	// Rounds fire only at the replay's synchronous boundaries.
	cfg.Period = 24 * time.Hour
	return cfg, nil
}

// configSummary is the daemon configuration recorded with every result.
func configSummary(cfg service.Config) map[string]any {
	det := cfg.Registry.Monitor.Detector
	mon := cfg.Registry.Monitor
	signals := []string{core.SignalName}
	for _, s := range mon.Fusion.Signals {
		signals = append(signals, s.Name())
	}
	out := map[string]any{
		"boundary_k":      det.Boundary.K,
		"boundary_b":      det.Boundary.B,
		"observation_s":   det.ObservationTime.Seconds(),
		"min_samples":     det.MinSamples,
		"band_radius":     det.BandRadius,
		"lb_prune":        det.LBPrune,
		"compare_workers": det.Workers,
		"confirm":         fmt.Sprintf("%d-of-%d", mon.ConfirmNeed, mon.ConfirmWindow),
		"max_range_m":     mon.MaxRangeM,
		"pair_cache":      !mon.DisablePairCache,
		"ingest_buffer":   cfg.IngestBuffer,
		"round_workers":   cfg.Workers,
		"signals":         signals,
		"coordinator":     cfg.Coordinator != nil,
	}
	if cfg.WAL != nil {
		out["wal_fsync"] = cfg.WAL.Fsync.String()
		out["wal_snapshot_interval_s"] = cfg.WAL.SnapshotInterval.Seconds()
	}
	return out
}

// grader accumulates the scorecard's Equations 12-13 over one replay.
type grader struct {
	truth vanet.Truth
	agg   metrics.Aggregator
	err   error
}

func (g *grader) add(outs []service.RoundOutcome) {
	for _, out := range outs {
		if out.Err != nil || out.Result == nil {
			continue
		}
		c, err := metrics.Score(out.Result.Considered, out.Result.Suspects, g.truth)
		if err != nil {
			if g.err == nil {
				g.err = err
			}
			continue
		}
		g.agg.Add(c)
	}
}

// grade is a replay's DR and FPR, rounded as the scorecard commits them.
// err is set when a rate is undefined, which only matters for the
// scorecard campaign.
type grade struct {
	dr, fpr float64
	err     error
}

func (g *grader) grade() grade {
	if g.err != nil {
		return grade{err: g.err}
	}
	dr, err := g.agg.MeanDR()
	if err != nil {
		return grade{err: err}
	}
	fpr, err := g.agg.MeanFPR()
	if err != nil {
		return grade{err: err}
	}
	return grade{dr: round4(dr), fpr: round4(fpr)}
}

// eventVerdict is the verdict an event carries.
func eventVerdict(round int, ev service.Event) verdict {
	return verdict{Round: round, Recv: ev.Recv, TMs: ev.TMs, Suspects: ev.Suspects, Confirmed: ev.Confirmed}
}
