package service

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/vanet"
	"voiceprint/internal/wal"
)

// RoundOutcome is one completed detection round for one receiver.
type RoundOutcome struct {
	Recv vanet.NodeID
	// At is the observation-window end in stream time.
	At time.Duration
	// Result is the round's detector output (nil when Err is set).
	Result *core.Result
	// Confirmed is the receiver's multi-period confirmation set after
	// this round.
	Confirmed map[vanet.NodeID]bool
	// Latency is the wall-clock time the round took.
	Latency time.Duration
	Err     error
}

// Scheduler runs detection rounds over the registry's receivers on a
// bounded worker pool: rounds for different receivers run in parallel
// (each additionally parallelizing its pairwise DTW phase via core's
// Config.Workers). It keeps no schedule of its own: the server fires
// every live sweep through Server.DetectNow, which never overlaps two
// sweeps, and Replay and WAL recovery call DetectOne in stream order.
type Scheduler struct {
	reg     *Registry
	metrics *Metrics
	sem     chan struct{}

	// journal, when non-nil, records every completed round boundary so
	// recovery can re-run the same rounds and rebuild the confirmation
	// history. Installed once at boot, after recovery replay; rounds may
	// already be running by then, so the pointer is atomic (see
	// Registry.journal).
	journal atomic.Pointer[wal.Log]
	// lastRound is the wall-clock UnixNano of the most recently completed
	// round (0 until the first); /healthz gates on its age.
	lastRound atomic.Int64
}

// NewScheduler builds a scheduler with the given pool size (0 means
// GOMAXPROCS). sink is ignored; it is kept only because the benchmark
// module (perfbench) still passes it.
func NewScheduler(reg *Registry, metrics *Metrics, workers int, sink func(RoundOutcome)) (*Scheduler, error) {
	if reg == nil || metrics == nil {
		return nil, errors.New("service: scheduler needs a registry and metrics")
	}
	if workers < 0 {
		return nil, errors.New("service: negative worker count")
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Scheduler{reg: reg, metrics: metrics, sem: make(chan struct{}, workers)}, nil
}

// DetectAll runs one round for every materialized receiver and waits for
// all of them, returning outcomes in ascending receiver order. at is the
// window end in stream time; at < 0 ends each receiver's window at its
// own newest observation (live mode, what Server.DetectNow runs); a
// fixed at pins every receiver to the same stream-time boundary.
func (s *Scheduler) DetectAll(at time.Duration) []RoundOutcome {
	recvs := s.reg.Receivers()
	outcomes := make([]RoundOutcome, len(recvs))
	var wg sync.WaitGroup
	wg.Add(len(recvs))
	for i, recv := range recvs {
		s.sem <- struct{}{}
		go func(i int, recv vanet.NodeID) {
			defer func() { <-s.sem; wg.Done() }()
			outcomes[i] = s.round(recv, at)
		}(i, recv)
	}
	wg.Wait()
	sort.Slice(outcomes, func(i, j int) bool { return outcomes[i].Recv < outcomes[j].Recv })
	return outcomes
}

// DetectOne runs one synchronous round for recv with the observation
// window ending at stream time at. Replay uses it to fire per-receiver
// boundary rounds in stream order.
func (s *Scheduler) DetectOne(recv vanet.NodeID, at time.Duration) RoundOutcome {
	return s.round(recv, at)
}

// SetJournal installs the write-ahead log for round boundaries. Call it
// once at boot, after recovery replay and before the first sweep.
func (s *Scheduler) SetJournal(l *wal.Log) { s.journal.Store(l) }

// LastRound returns when the most recent round completed (the zero time
// until the first round has run).
func (s *Scheduler) LastRound() time.Time {
	ns := s.lastRound.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// round runs one detection round and updates the metrics. A panic in
// the detector is recovered into an errored outcome: one receiver's bad
// round must not take down the daemon (and with it the sweep's rounds
// for every other receiver).
func (s *Scheduler) round(recv vanet.NodeID, at time.Duration) (out RoundOutcome) {
	// Liveness stamp; registered first so it runs last, after the round's
	// outcome (including a recovered panic) is settled.
	defer func() { s.lastRound.Store(time.Now().UnixNano()) }()
	if l := s.journal.Load(); l != nil {
		// The barrier spans run-then-journal: a concurrent snapshot either
		// captures monitor state without this round's effects and replays
		// its record, or captures after both — never in between. out.At is
		// read at defer-run time, after the recover defer below has
		// settled it, so even a panicked round journals its boundary.
		l.Begin()
		defer func() {
			_ = l.AppendRound(recv, out.At)
			l.End()
		}()
	}
	defer func() {
		if r := recover(); r != nil {
			out = RoundOutcome{Recv: recv, At: at, Err: fmt.Errorf("service: round panic: %v", r)}
			s.metrics.RoundPanics.Add(1)
			s.metrics.RoundErrors.Add(1)
		}
	}()
	out = RoundOutcome{Recv: recv, At: at}
	mon := s.reg.Monitor(recv)
	if mon == nil {
		out.Err = errors.New("service: unknown receiver")
		return out
	}
	start := time.Now()
	var res *core.Result
	var err error
	if at < 0 {
		res, err = mon.Detect()
	} else {
		res, err = mon.DetectAt(at)
	}
	out.Latency = time.Since(start)
	s.metrics.RoundsRun.Add(1)
	s.metrics.RoundLatency.Observe(out.Latency.Nanoseconds())
	if err != nil {
		out.Err = err
		s.metrics.RoundErrors.Add(1)
		return out
	}
	out.Result = res
	// The round already carries the window end it evaluated and the
	// post-round confirmation set built under the monitor's lock — no
	// second Confirmed() lock round-trip, and no race between reading the
	// clock and running the round.
	out.At = res.WindowEnd
	out.Confirmed = res.Confirmed
	// Ingest lag: how far the receiver's stream has run past the window
	// this round evaluated. Live rounds pin the window to the newest
	// observation at round start, so any lag is ingest that arrived while
	// the round computed; fixed-boundary (replay) rounds additionally see
	// the scheduling slack behind the stream. Observed on every
	// successful round — the zeros are the signal that detection keeps
	// up.
	lag := mon.Now() - res.WindowEnd
	if lag < 0 {
		lag = 0
	}
	s.metrics.IngestLag.Observe(lag.Nanoseconds())
	s.metrics.SuspectsFlagged.Add(uint64(len(res.Suspects)))
	// Compare-phase work accounting: full DTW computations and
	// lower-bound-pruned pairs.
	s.metrics.PairsCompared.Add(uint64(res.PairsCompared))
	s.metrics.PairsPrunedLB.Add(uint64(res.PairsPrunedLB))
	return out
}
