package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/service"
)

// directResult is one single-goroutine replay: the reference verdicts,
// and with a tracer the per-layer spans.
type directResult struct {
	wall     time.Duration
	verdicts []verdict
	grade    grade
	// pairs is the compare-phase pair count over the replay (recovery
	// replay included), the base of dtw.ns_per_pair.
	pairs    uint64
	bytesOut int
}

// timedSignal wraps a fusion signal so each Analyze call is a span.
type timedSignal struct {
	core.Signal
	tr *tracer
}

func (s timedSignal) Analyze(in *core.SignalInput) (*core.SignalResult, error) {
	i := s.tr.begin(layerAnalyze, -1)
	defer s.tr.end(i)
	return s.Signal.Analyze(in)
}

// Validate forwards to the wrapped signal, so FusionOptions.Validate
// still checks its thresholds.
func (s timedSignal) Validate() error {
	if v, ok := s.Signal.(interface{ Validate() error }); ok {
		return v.Validate()
	}
	return nil
}

// traced returns cfg with the tracer installed as the monitors' stage
// observer and around every fusion signal.
func traced(cfg service.Config, tr *tracer) service.Config {
	cfg.Registry.Monitor.Detector.Observer = tr
	sigs := cfg.Registry.Monitor.Fusion.Signals
	if len(sigs) > 0 {
		wrapped := make([]core.Signal, len(sigs))
		for i, s := range sigs {
			wrapped[i] = timedSignal{Signal: s, tr: tr}
		}
		cfg.Registry.Monitor.Fusion.Signals = wrapped
	}
	return cfg
}

// directReplay replays the input on one goroutine through the public
// calls the server makes for each line and boundary — ParseObservation,
// Registry.Observe, one Scheduler round per receiver, the coordinator,
// and event encoding — with no sockets in between. Its verdicts are the
// reference the live run must reproduce; with a non-nil tracer every
// call is a span. The durable workload crashes and recovers at the same
// line as the live run.
func directReplay(w workload, in *input, cfg service.Config, walRoot string, tr *tracer) (*directResult, error) {
	if tr != nil {
		cfg = traced(cfg, tr)
	}
	if w.durable {
		dir, err := os.MkdirTemp(walRoot, "wal-direct-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.WAL = &service.WALConfig{Dir: dir, SnapshotInterval: -1}
	}
	var servers []*service.Server
	var replayed uint64 // observations re-ingested by recovery boots
	// Booted servers never Serve; a cancelled Serve releases each one's
	// listener (and seals its WAL) after the timed replay.
	defer func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for _, srv := range servers {
			_ = srv.Serve(ctx)
		}
	}()
	boot := func(l layer, ref int) (*service.Scheduler, *service.Registry, error) {
		i := tr.begin(l, int64(ref))
		srv, err := service.NewServer(cfg)
		tr.end(i)
		if err != nil {
			return nil, nil, err
		}
		servers = append(servers, srv)
		replayed += srv.Metrics().ObservationsIngested.Load()
		sched, err := service.NewScheduler(srv.Registry(), srv.Metrics(), 1, nil)
		if err != nil {
			return nil, nil, err
		}
		if log := srv.WAL(); log != nil {
			sched.SetJournal(log)
		}
		return sched, srv.Registry(), nil
	}

	res := &directResult{}
	g := grader{truth: in.truth}
	start := time.Now()
	sched, reg, err := boot(layerBoot, 0)
	if err != nil {
		return nil, err
	}
	i := 0 // line index
	for si, seg := range in.segments {
		for pos := seg.from; pos < seg.to; i++ {
			end := pos + bytes.IndexByte(in.lines[pos:seg.to], '\n')
			line := in.lines[pos:end]
			pos = end + 1
			s := tr.begin(layerDecode, int64(i))
			o, err := service.ParseObservation(line)
			tr.end(s)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", i, err)
			}
			s = tr.begin(layerObserve, int64(i))
			err = reg.Observe(o)
			tr.end(s)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", i, err)
			}
			if pos == in.crash {
				servers[len(servers)-1].WAL().Abort()
				if sched, reg, err = boot(layerRecover, i+1); err != nil {
					return nil, err
				}
			}
		}
		recvs := reg.Receivers()
		outs := make([]service.RoundOutcome, 0, len(recvs))
		for _, recv := range recvs {
			s := tr.begin(layerRound, int64(si))
			outs = append(outs, sched.DetectOne(recv, -1))
			tr.end(s)
		}
		if cfg.Coordinator != nil {
			s := tr.begin(layerCoordinate, int64(si))
			outs = cfg.Coordinator.Coordinate(outs)
			tr.end(s)
		}
		for _, out := range outs {
			s := tr.begin(layerEncode, int64(si))
			ev := service.EventFromOutcome(out)
			b := ev.Encode()
			tr.end(s)
			res.bytesOut += len(b)
			if out.Err != nil {
				return nil, fmt.Errorf("round %d receiver %d: %w", si, out.Recv, out.Err)
			}
			res.verdicts = append(res.verdicts, eventVerdict(si, ev))
		}
		if in.graded(seg) {
			g.add(outs)
		}
	}
	res.wall = time.Since(start)
	res.grade = g.grade()

	var ingested uint64
	for _, srv := range servers {
		m := srv.Metrics()
		ingested += m.ObservationsIngested.Load()
		res.pairs += m.PairsCompared.Load() + m.PairsPrunedLB.Load() + m.PairsReusedDirty.Load()
	}
	if ingested-replayed != uint64(in.count) {
		return nil, fmt.Errorf("direct replay ingested %d of %d lines", ingested-replayed, in.count)
	}
	return res, nil
}
