package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"

	"voiceprint/internal/obs"
	"voiceprint/internal/service"
)

// Waits that only a broken daemon exceeds; hitting one is a failure.
const (
	drainTimeout = 30 * time.Second
	eventTimeout = 10 * time.Second
	stopTimeout  = 30 * time.Second
)

// arrival is one verdict event as the subscriber read it.
type arrival struct {
	at  time.Time
	ev  service.Event
	err error
}

// session is one booted daemon with the benchmark's two connections: an
// ingest connection the generator writes lines to (its copy of the
// verdict broadcast is read and discarded), and a subscriber connection
// that never writes and reads every verdict event to EOF.
type session struct {
	srv     *service.Server
	cancel  context.CancelFunc
	served  chan error
	ingest  net.Conn
	sub     net.Conn
	events  chan arrival
	readers sync.WaitGroup
	// base and ingestBase are the ingest accounting and the ingested
	// count right after boot: recovery replay re-counts journaled
	// observations, which the generator did not send to this daemon.
	base, ingestBase uint64
}

// startSession boots a daemon and connects to it. It returns the time
// service.NewServer took — the session's set-up time.
func startSession(cfg service.Config) (*session, time.Duration, error) {
	t0 := time.Now()
	srv, err := service.NewServer(cfg)
	boot := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := srv.Metrics()
	s := &session{srv: srv, cancel: cancel, served: make(chan error, 1), base: accounted(m), ingestBase: m.ObservationsIngested.Load()}
	go func() { s.served <- srv.Serve(ctx) }()
	addr := srv.Addr().String()
	if s.ingest, err = net.Dial("tcp", addr); err == nil {
		s.sub, err = net.Dial("tcp", addr)
	}
	if err != nil {
		_, _ = s.stop()
		return nil, 0, fmt.Errorf("dial daemon: %w", err)
	}
	// One boundary's events (one per receiver, eight at most in these
	// campaigns) fit without blocking the reader.
	s.events = make(chan arrival, 64)
	s.readers.Add(2)
	go func() {
		defer s.readers.Done()
		_, _ = io.Copy(io.Discard, s.ingest)
	}()
	go func() {
		defer s.readers.Done()
		defer close(s.events)
		sc := service.NewLineScanner(s.sub, 1<<20)
		for sc.Scan() {
			at := time.Now()
			ev, err := service.DecodeEvent(sc.Bytes())
			s.events <- arrival{at: at, ev: ev, err: err}
		}
	}()
	return s, boot, nil
}

// stop shuts the daemon down, waits for both readers to reach EOF, and
// returns how many events arrived that no boundary claimed.
func (s *session) stop() (extra int, err error) {
	s.cancel()
	select {
	case err = <-s.served:
	case <-time.After(stopTimeout):
		err = errors.New("daemon did not shut down")
	}
	for _, c := range []net.Conn{s.ingest, s.sub} {
		if c != nil && err != nil {
			c.Close() // a wedged daemon never sends EOF; unblock the readers
		}
	}
	if s.events != nil {
		for range s.events {
			extra++
		}
	}
	s.readers.Wait()
	for _, c := range []net.Conn{s.ingest, s.sub} {
		if c != nil {
			c.Close()
		}
	}
	return extra, err
}

// accounted sums every bucket an inbound line can land in.
func accounted(m *service.Metrics) uint64 {
	return m.ObservationsIngested.Load() + m.StaleDropped.Load() +
		m.MalformedDropped.Load() + m.BackpressureDropped.Load() +
		m.OversizedDropped.Load() + m.ReceiversRejected.Load()
}

// waitAccounted polls until the daemon has accounted for want lines
// since boot.
func (s *session) waitAccounted(want uint64) error {
	m := s.srv.Metrics()
	deadline := time.Now().Add(drainTimeout)
	for accounted(m)-s.base != want {
		if time.Now().After(deadline) {
			return fmt.Errorf("ingest accounting stuck at %d of %d lines", accounted(m)-s.base, want)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// meter accumulates wall, CPU and allocator deltas over the timed parts
// of a replay: from the first byte written to the last verdict event,
// except the crash-and-reboot gap, which set-up measures.
type meter struct {
	wall, cpu time.Duration
	alloc     uint64
	gcs       uint32
	gcPause   uint64
	t0        time.Time
	cpu0      time.Duration
	ms0       runtime.MemStats
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
}

// stop closes the timed part, counting wall time up to end.
func (m *meter) stop(end time.Time) {
	m.wall += end.Sub(m.t0)
	m.cpu += cpuTime() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.alloc += ms.TotalAlloc - m.ms0.TotalAlloc
	m.gcs += ms.NumGC - m.ms0.NumGC
	m.gcPause += ms.PauseTotalNs - m.ms0.PauseTotalNs
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the heap the last GC cycle marked live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// liveResult is one live replay.
type liveResult struct {
	campaign int           // index of the replayed campaign in the run
	setup    time.Duration // NewServer time summed over the replay's boots
	recover  time.Duration // NewServer on the crashed directory
	meter    meter
	heapPeak uint64 // highest live heap after a boundary, above the pre-boot floor

	latencies []time.Duration // DetectNow call → verdict event, per (receiver, boundary)
	detects   []time.Duration // DetectNow call → return, per boundary
	drains    []time.Duration // last pre-boundary write → accounting caught up
	rounds    []time.Duration // RoundOutcome.Latency
	verdicts  []verdict
	grade     grade

	sent, ingested int
	expected       int // verdict events the boundaries produced
	failed         int
	failures       []string

	counters map[string]uint64 // summed over the replay's daemons
	walBytes int64
	fsync    obs.HistogramSnapshot
}

func (r *liveResult) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// absorb folds a stopped daemon's counters into the replay's totals.
func (r *liveResult) absorb(s *session) {
	m := s.srv.Metrics()
	for k, v := range m.Snapshot() {
		r.counters[k] += v
	}
	r.ingested += int(m.ObservationsIngested.Load() - s.ingestBase)
	r.fsync.Merge(m.WALFsyncLatency.Snapshot())
}

// liveReplay streams the input through a live daemon over loopback TCP.
// It writes each boundary's lines in one write (TCP flow control holds
// the generator back when the daemon falls behind), waits until the
// daemon has accounted for every line, calls DetectNow, and waits for
// every receiver's verdict event at the subscriber before going on.
func liveReplay(w workload, in *input, cfg service.Config, walRoot string) (*liveResult, error) {
	if w.durable {
		dir, err := os.MkdirTemp(walRoot, "wal-live-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.WAL = &service.WALConfig{Dir: dir, SnapshotInterval: -1}
	}
	r := &liveResult{counters: map[string]uint64{}}
	// Two cycles: objects behind a finalizer (the previous daemon's
	// sockets) survive the first.
	runtime.GC()
	runtime.GC()
	floor := liveHeap()

	sess, boot, err := startSession(cfg)
	if err != nil {
		return nil, err
	}
	r.setup += boot
	defer func() {
		if sess != nil {
			_, _ = sess.stop()
		}
	}()
	sentHere := 0 // lines sent to the current daemon
	write := func(from, to, lines int) error {
		if from == to {
			return nil
		}
		if _, err := sess.ingest.Write(in.lines[from:to]); err != nil {
			return fmt.Errorf("write bytes %d-%d: %w", from, to, err)
		}
		r.sent += lines
		sentHere += lines
		return nil
	}

	var last time.Time
	g := grader{truth: in.truth}
	r.meter.start()
	for si, seg := range in.segments {
		from, lines := seg.from, seg.lines
		if in.crash > from && in.crash <= seg.to {
			before := in.crashLines - r.sent
			if err := write(from, in.crash, before); err != nil {
				return nil, err
			}
			if err := sess.waitAccounted(uint64(sentHere)); err != nil {
				return nil, err
			}
			r.meter.stop(time.Now())
			if err := r.crash(&sess, cfg); err != nil {
				return nil, err
			}
			sentHere = 0
			from, lines = in.crash, lines-before
			r.meter.start()
		}
		if err := write(from, seg.to, lines); err != nil {
			return nil, err
		}
		written := time.Now()
		if err := sess.waitAccounted(uint64(sentHere)); err != nil {
			return nil, err
		}
		r.drains = append(r.drains, time.Since(written))

		called := time.Now()
		outs := sess.srv.DetectNow()
		r.detects = append(r.detects, time.Since(called))
		r.expected += len(outs)
		for _, out := range outs {
			r.rounds = append(r.rounds, out.Latency)
			if out.Err != nil {
				r.fail(1, "round %d receiver %d: %v", si, out.Recv, out.Err)
			}
		}
		if in.graded(seg) {
			g.add(outs)
		}
		timeout := time.NewTimer(eventTimeout)
		expired := false
		for _, out := range outs {
			want := eventVerdict(si, service.EventFromOutcome(out))
			var a arrival
			ok := false
			if !expired {
				select {
				case a, ok = <-sess.events:
				case <-timeout.C:
					expired = true
				}
			}
			if !ok {
				r.fail(1, "round %d receiver %d: verdict event missing", si, want.Recv)
				continue
			}
			last = a.at
			r.latencies = append(r.latencies, a.at.Sub(called))
			if a.err != nil {
				r.fail(1, "round %d: undecodable event: %v", si, a.err)
				continue
			}
			got := eventVerdict(si, a.ev)
			r.verdicts = append(r.verdicts, got)
			if !sameVerdict(got, want) {
				r.fail(1, "round %d receiver %d: event differs from the DetectNow outcome", si, want.Recv)
			}
		}
		timeout.Stop()
		if h := liveHeap(); h > floor && h-floor > r.heapPeak {
			r.heapPeak = h - floor
		}
	}
	r.meter.stop(last)
	r.grade = g.grade()

	if l := sess.srv.WAL(); l != nil {
		r.walBytes += l.Status().SinceSnapshotBytes
	}
	s := sess
	sess = nil
	extra, err := s.stop()
	if err != nil {
		return nil, err
	}
	r.absorb(s)
	if extra > 0 {
		r.fail(extra, "%d unexpected verdict events", extra)
	}
	if r.ingested != r.sent {
		r.fail(max(r.sent-r.ingested, 1), "ingested %d of %d lines sent", r.ingested, r.sent)
	}
	return r, nil
}

// crash aborts the current daemon's WAL — the kill -9 view of the
// journal — shuts it down, and boots a replacement on the same
// directory, which recovers by replaying the journal.
func (r *liveResult) crash(sess **session, cfg service.Config) error {
	old := *sess
	if l := old.srv.WAL(); l != nil {
		r.walBytes += l.Status().SinceSnapshotBytes
		l.Abort()
	}
	*sess = nil
	extra, err := old.stop()
	if err != nil {
		return err
	}
	r.absorb(old)
	if extra > 0 {
		r.fail(extra, "%d unexpected verdict events before the crash", extra)
	}
	next, boot, err := startSession(cfg)
	if err != nil {
		return fmt.Errorf("recovery boot: %w", err)
	}
	*sess = next
	r.setup += boot
	r.recover += boot
	return nil
}

func sameVerdict(a, b verdict) bool {
	return a.Round == b.Round && a.Recv == b.Recv && a.TMs == b.TMs &&
		slices.Equal(a.Suspects, b.Suspects) && slices.Equal(a.Confirmed, b.Confirmed)
}
