package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"voiceprint/internal/wal"
)

// Config configures a Server.
type Config struct {
	// Network and Addr name the ingest listener: "tcp" with a host:port,
	// or "unix" with a socket path.
	Network, Addr string
	// Listener, when non-nil, is used instead of binding Network/Addr —
	// the fault-injection testkit wraps a bound listener with a chaotic
	// one and hands it in here, putting the daemon's side of every
	// accepted connection behind the chaos layer.
	Listener net.Listener
	// Registry is the per-receiver monitor shard configuration.
	Registry RegistryConfig
	// Period is the live detection period: how often the scheduler runs
	// a round over every receiver. Zero means the monitor's observation
	// window (the paper runs detection once per observation window).
	Period time.Duration
	// Workers bounds the scheduler's round pool; zero means GOMAXPROCS.
	Workers int
	// IngestBuffer bounds, per connection, the observations decoded but
	// not yet applied, in lines. When a detection round briefly holds a
	// monitor busy the bound absorbs the burst; lines beyond it are shed
	// with accounting instead of queueing without bound. Storage for
	// decoded lines comes from a shared pool while they are in flight,
	// so an idle or subscribe-only connection holds none. Zero means
	// 4096.
	IngestBuffer int
	// EventBuffer is the per-connection outbound verdict buffer; slow
	// consumers lose events (accounted), they do not stall the daemon.
	// Zero means 256.
	EventBuffer int
	// MaxLineBytes caps one inbound NDJSON line; a longer line is shed
	// with accounting (the connection survives — one corrupted or
	// abusive frame must not cost an honest client its stream). Zero
	// means 64 KiB.
	MaxLineBytes int
	// IdleTimeout disconnects a client whose ingest side has been silent
	// this long (a read deadline set before each read). Zero disables:
	// pure event subscribers legitimately never write.
	IdleTimeout time.Duration
	// WriteTimeout bounds one verdict-event write to a client; on expiry
	// the client is evicted (closed and accounted) rather than allowed
	// to stall the writer goroutine forever. Zero means 5 s.
	WriteTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: after the serve context is
	// cancelled the server stops accepting, unblocks readers, and gives
	// writers this long to flush buffered events before force-closing
	// stragglers. Zero means 2 s.
	DrainTimeout time.Duration
	// Logger, when non-nil, receives structured operational logs;
	// per-connection records carry the remote address (and, for ingest
	// errors, the receiver) as attributes. When nil, logs are
	// discarded.
	Logger *slog.Logger
	// WAL, when non-nil, makes detection state durable: observations and
	// round boundaries are journaled to a write-ahead log in WAL.Dir,
	// compacted periodically into monitor-state snapshots, and recovered
	// on the next NewServer before ingest starts. Nil keeps today's
	// purely in-memory behavior at zero cost.
	WAL *WALConfig
	// Coordinator, when non-nil, post-processes every synchronized
	// detection sweep (DetectNow / replay boundaries) across receivers —
	// the hook the fusion clique signal uses to correlate verdicts
	// cross-receiver. The asynchronous Tick path is deliberately
	// uncoordinated: its per-receiver rounds complete at different times,
	// so a cross-receiver pass there would race the very sweep it
	// correlates; Tick rounds carry per-receiver fusion verdicts only.
	Coordinator RoundCoordinator
}

// RoundCoordinator correlates one synchronized sweep of round outcomes
// across receivers. Each Result belongs to the sweep alone, so
// implementations may adjust the Results they are given in place; they
// return the (possibly adjusted) outcomes.
type RoundCoordinator interface {
	Coordinate(outs []RoundOutcome) []RoundOutcome
}

// WALConfig configures the durability subsystem (Config.WAL).
type WALConfig struct {
	// Dir is the journal directory, created if absent. Required.
	Dir string
	// Fsync is the fsync policy (wal.SyncInterval, the zero value, group-
	// commits once per FsyncInterval).
	Fsync wal.SyncPolicy
	// FsyncInterval is the group-commit period; zero means 5 ms.
	FsyncInterval time.Duration
	// SnapshotInterval is the periodic compaction cadence; zero means
	// 5 minutes, negative disables periodic snapshots (explicit
	// Server.Snapshot and the shutdown snapshot still work).
	SnapshotInterval time.Duration
}

func (c *Config) fillDefaults() error {
	switch {
	case c.Listener != nil: // pre-bound listener: Network/Addr unused
	case c.Network == "tcp", c.Network == "unix":
	default:
		return fmt.Errorf("service: unsupported network %q (want tcp or unix)", c.Network)
	}
	if c.Period == 0 {
		c.Period = c.Registry.Monitor.Detector.ObservationTime
	}
	if c.Period == 0 {
		c.Period = 20 * time.Second
	}
	if c.Period < 0 {
		return errors.New("service: negative period")
	}
	if c.IngestBuffer == 0 {
		c.IngestBuffer = 4096
	}
	if c.EventBuffer == 0 {
		c.EventBuffer = 256
	}
	if c.MaxLineBytes == 0 {
		c.MaxLineBytes = 64 << 10
	}
	if c.IdleTimeout < 0 {
		return errors.New("service: negative idle timeout")
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.WriteTimeout < 0 {
		return errors.New("service: negative write timeout")
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 2 * time.Second
	}
	if c.DrainTimeout < 0 {
		return errors.New("service: negative drain timeout")
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	return nil
}

// Server is the streaming detection daemon: it accepts NDJSON
// observation streams, shards them into per-receiver monitors, runs
// detection rounds on a schedule, and broadcasts verdict events to every
// connected client.
type Server struct {
	cfg     Config
	metrics *Metrics
	reg     *Registry
	sched   *Scheduler

	// wal is non-nil when Config.WAL enabled durability; started anchors
	// the /healthz startup grace before the first round completes.
	wal      *wal.Log
	started  time.Time
	snapBusy atomic.Bool
	bgWG     sync.WaitGroup

	ln net.Listener

	mu     sync.Mutex
	conns  map[*serverConn]struct{} // voiceprintvet:guardedby mu
	closed bool                     // voiceprintvet:guardedby mu

	connWG sync.WaitGroup
}

// serverConn is one client connection: observations in, events out.
type serverConn struct {
	c      net.Conn
	events chan []byte
	// torn is set once handleConn has fully released the connection; the
	// drain-timeout reaper skips those. It cannot key off s.conns:
	// teardown detaches from the broadcast map before waiting out the
	// writer, which is exactly the goroutine a stalled peer wedges.
	torn atomic.Bool
}

// NewServer builds a Server and binds its listener (so an Addr of
// "127.0.0.1:0" is resolvable via Addr before Serve is called).
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	metrics := &Metrics{}
	reg, err := NewRegistry(cfg.Registry, metrics)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		metrics: metrics,
		reg:     reg,
		started: time.Now(),
		conns:   make(map[*serverConn]struct{}),
	}
	sched, err := NewScheduler(reg, metrics, cfg.Workers, s.broadcast)
	if err != nil {
		return nil, err
	}
	s.sched = sched
	if cfg.WAL != nil {
		if err := s.openWAL(); err != nil {
			return nil, err
		}
	}
	if cfg.Listener != nil {
		s.ln = cfg.Listener
		return s, nil
	}
	ln, err := net.Listen(cfg.Network, cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("service: listen %s %s: %w", cfg.Network, cfg.Addr, err)
	}
	s.ln = ln
	return s, nil
}

// Addr returns the bound ingest listener address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Metrics exposes the server's counters (the admin handler renders them).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Registry exposes the server's receiver shard.
func (s *Server) Registry() *Registry { return s.reg }

// WAL exposes the server's write-ahead log, nil when durability is
// disabled. The testkit uses it to simulate crashes.
func (s *Server) WAL() *wal.Log { return s.wal }

// openWAL opens (or recovers) the journal and replays recovered state
// through the normal ingest and round paths. The journal hooks are
// installed only after replay finishes, so replayed records are not
// journaled a second time; replay does re-count ingest/round metrics,
// which is deliberate — the counters describe this process's work.
func (s *Server) openWAL() error {
	wc := s.cfg.WAL
	l, rec, err := wal.Open(wal.Options{
		Dir:      wc.Dir,
		Policy:   wc.Fsync,
		Interval: wc.FsyncInterval,
		Stats:    s.metrics.walStats(),
		Logger:   s.cfg.Logger,
	})
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	for _, rs := range rec.Snapshot {
		if err := s.reg.RestoreMonitor(rs.Recv, rs.State); err != nil {
			l.Close()
			return err
		}
	}
	if err := rec.Replay(func(r wal.Record) error {
		switch r.Kind {
		case wal.KindObservation:
			return s.reg.Observe(Observation{Recv: r.Recv, Sender: r.Sender, TMs: r.T.Milliseconds(), RSSI: r.RSSI})
		case wal.KindObservationPos:
			return s.reg.Observe(Observation{
				Recv: r.Recv, Sender: r.Sender, TMs: r.T.Milliseconds(), RSSI: r.RSSI,
				Schema: 1, Pos: &Position{X: r.X, Y: r.Y},
			})
		case wal.KindRound:
			s.sched.DetectOne(r.Recv, r.At)
		}
		return nil
	}); err != nil {
		l.Close()
		return err
	}
	if rec.SnapshotPath != "" || rec.Records > 0 {
		s.cfg.Logger.Info("service: recovered durable state",
			"snapshot", rec.SnapshotPath,
			"snapshot_receivers", len(rec.Snapshot),
			"replayed_records", rec.Records)
	}
	s.reg.SetJournal(l)
	s.sched.SetJournal(l)
	s.wal = l
	return nil
}

// ErrWALDisabled is returned by Snapshot when the server runs without a
// WAL; ErrSnapshotInFlight when a snapshot is already being written.
var (
	ErrWALDisabled      = errors.New("service: wal disabled")
	ErrSnapshotInFlight = errors.New("service: snapshot already in flight")
)

// Snapshot compacts the journal: it captures every receiver's monitor
// state under the WAL's snapshot barrier and writes it as the new
// recovery baseline, pruning superseded segments. At most one snapshot
// runs at a time.
func (s *Server) Snapshot() (wal.SnapshotInfo, error) {
	if s.wal == nil {
		return wal.SnapshotInfo{}, ErrWALDisabled
	}
	if !s.snapBusy.CompareAndSwap(false, true) {
		return wal.SnapshotInfo{}, ErrSnapshotInFlight
	}
	defer s.snapBusy.Store(false)
	return s.wal.Snapshot(s.reg.CaptureState)
}

// Health is the /healthz readiness report.
type Health struct {
	// Status is "ok", or "stalled" when receivers exist but no detection
	// round has completed within ~3 periods.
	Status string `json:"status"`
	// Version is the daemon build version (filled by the admin layer).
	Version   string `json:"version,omitempty"`
	Receivers int    `json:"receivers"`
	RoundsRun uint64 `json:"rounds_run"`
	PeriodMs  int64  `json:"period_ms"`
	// LastRoundAgeMs is the age of the newest completed round, -1 until
	// the first round completes.
	LastRoundAgeMs int64 `json:"last_round_age_ms"`
	// WAL reports durability posture, absent when the WAL is disabled.
	WAL *WALHealth `json:"wal,omitempty"`
}

// WALHealth is the WAL/snapshot section of Health.
type WALHealth struct {
	Segment      uint64 `json:"segment"`
	SegmentBytes int64  `json:"segment_bytes"`
	// SinceSnapshotBytes is the replay debt: journal bytes a restart
	// right now would have to replay.
	SinceSnapshotBytes int64 `json:"since_snapshot_bytes"`
	// LastSnapshotAgeMs is -1 until the first snapshot is written.
	LastSnapshotAgeMs int64 `json:"last_snapshot_age_ms"`
}

// Health reports scheduler liveness and WAL lag. The daemon is
// "stalled" when it tracks receivers but the scheduler has not
// completed a round within three detection periods (at least 3 s, and
// measured from process start until the first round, so a fresh daemon
// gets a startup grace rather than flapping).
func (s *Server) Health() Health {
	h := Health{
		Status:         "ok",
		Receivers:      len(s.reg.Receivers()),
		RoundsRun:      s.metrics.RoundsRun.Load(),
		PeriodMs:       s.cfg.Period.Milliseconds(),
		LastRoundAgeMs: -1,
	}
	sinceRound := time.Since(s.started)
	if last := s.sched.LastRound(); !last.IsZero() {
		sinceRound = time.Since(last)
		h.LastRoundAgeMs = sinceRound.Milliseconds()
	}
	stale := 3 * s.cfg.Period
	if stale < 3*time.Second {
		stale = 3 * time.Second
	}
	if h.Receivers > 0 && sinceRound > stale {
		h.Status = "stalled"
	}
	if s.wal != nil {
		st := s.wal.Status()
		wh := &WALHealth{
			Segment:            st.Segment,
			SegmentBytes:       st.SegmentBytes,
			SinceSnapshotBytes: st.SinceSnapshotBytes,
			LastSnapshotAgeMs:  -1,
		}
		if !st.LastSnapshotAt.IsZero() {
			wh.LastSnapshotAgeMs = time.Since(st.LastSnapshotAt).Milliseconds()
		}
		h.WAL = wh
	}
	return h
}

// Serve accepts connections and runs the detection schedule until ctx is
// cancelled, then shuts down gracefully: stop accepting, close client
// connections, and drain in-flight detection rounds. It always returns
// a nil error after a clean context shutdown.
func (s *Server) Serve(ctx context.Context) error {
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			c, err := s.ln.Accept()
			if err != nil {
				return
			}
			s.connWG.Add(1)
			go func() {
				defer s.connWG.Done()
				s.handleConn(c)
			}()
		}
	}()

	ticker := time.NewTicker(s.cfg.Period)
	defer ticker.Stop()
	var snapC <-chan time.Time
	if s.wal != nil && s.cfg.WAL.SnapshotInterval >= 0 {
		iv := s.cfg.WAL.SnapshotInterval
		if iv == 0 {
			iv = 5 * time.Minute
		}
		snapTicker := time.NewTicker(iv)
		defer snapTicker.Stop()
		snapC = snapTicker.C
	}
	for {
		select {
		case <-ticker.C:
			s.sched.Tick()
		case <-snapC:
			// Off the schedule loop: a snapshot deep-copies the fleet and
			// fsyncs, which must not delay detection ticks.
			s.bgWG.Add(1)
			go func() {
				defer s.bgWG.Done()
				s.snapshotBackground()
			}()
		case <-ctx.Done():
			force := s.shutdown()
			<-acceptDone
			s.connWG.Wait()
			force.Stop()
			s.sched.Drain()
			s.bgWG.Wait()
			if s.wal != nil {
				// SIGTERM flush: compact once more so the next boot restores
				// from the snapshot instead of replaying the whole journal,
				// then seal the log. An aborted (crash-simulated) log skips
				// both quietly.
				if _, err := s.Snapshot(); err != nil && !errors.Is(err, wal.ErrClosed) {
					s.cfg.Logger.Warn("service: shutdown snapshot failed", "err", err)
				}
				if err := s.wal.Close(); err != nil && !errors.Is(err, wal.ErrClosed) {
					s.cfg.Logger.Warn("service: wal close failed", "err", err)
				}
			}
			return nil
		}
	}
}

// snapshotBackground runs one periodic compaction, logging the outcome.
func (s *Server) snapshotBackground() {
	info, err := s.Snapshot()
	if err != nil {
		if !errors.Is(err, ErrSnapshotInFlight) && !errors.Is(err, wal.ErrClosed) {
			s.cfg.Logger.Warn("service: periodic snapshot failed", "err", err)
		}
		return
	}
	s.cfg.Logger.Info("service: snapshot written",
		"path", info.Path, "receivers", info.Receivers,
		"bytes", info.Bytes, "elapsed", info.Elapsed)
}

// DetectNow synchronously runs one round for every receiver (window
// ending at each receiver's newest observation), runs the cross-receiver
// coordinator (when configured), broadcasts the verdict events, and
// returns the outcomes in ascending receiver order.
func (s *Server) DetectNow() []RoundOutcome {
	outs := s.sched.DetectAll(-1)
	if s.cfg.Coordinator != nil {
		outs = s.cfg.Coordinator.Coordinate(outs)
	}
	for _, out := range outs {
		s.broadcast(out)
	}
	return outs
}

// shutdown closes the listener and begins the graceful connection
// drain: every reader is unblocked via an expired read deadline (its
// teardown then closes the event channel, and the writer flushes any
// buffered verdicts before the socket closes), and a force-close timer
// reaps connections still around after the drain timeout. The returned
// timer is stopped by Serve once every connection handler has exited.
func (s *Server) shutdown() *time.Timer {
	s.mu.Lock()
	s.closed = true
	conns := make([]*serverConn, 0, len(s.conns))
	//voiceprintvet:ignore nondeterminism teardown order of the connection set is immaterial; each conn is closed independently
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	s.ln.Close()
	past := time.Now().Add(-time.Second)
	for _, sc := range conns {
		sc.c.SetReadDeadline(past)
	}
	return time.AfterFunc(s.cfg.DrainTimeout, func() {
		for _, sc := range conns {
			if sc.torn.Load() {
				continue
			}
			s.metrics.ConnsForceClosed.Add(1)
			sc.c.Close()
		}
	})
}

// handleConn runs one client connection: a reader decoding NDJSON
// observations into batches, an applier journaling and applying them
// through the registry, and a writer streaming verdict events back.
func (s *Server) handleConn(c net.Conn) {
	s.metrics.ConnsOpened.Add(1)
	defer s.metrics.ConnsClosed.Add(1)

	// Every record for this connection carries the peer address; ingest
	// errors additionally carry the receiver the observation was for.
	clog := s.cfg.Logger.With("remote", connAddr(c))
	clog.Debug("service: client connected")
	defer clog.Debug("service: client disconnected")

	sc := &serverConn{c: c, events: make(chan []byte, s.cfg.EventBuffer)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		c.Close()
		return
	}
	s.conns[sc] = struct{}{}
	s.mu.Unlock()

	// Writer: pushes broadcast events until the event channel closes. A
	// write that exceeds the write timeout evicts the client: a stalled
	// reader on the far side (full TCP window, wedged process) must not
	// pin the writer goroutine or the event backlog.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for b := range sc.events {
			c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			if _, err := c.Write(b); err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					s.metrics.SlowClientsEvicted.Add(1)
					clog.Warn("service: evicting slow client", "write_timeout", s.cfg.WriteTimeout)
				}
				c.Close() // unblocks the reader; cleanup follows
				// Drain remaining events so broadcast never blocks.
				for range sc.events {
					s.metrics.EventsDropped.Add(1)
				}
				return
			}
		}
	}()

	// Applier: journals and applies each batch the reader admitted, in
	// arrival order: one WAL write and one hold of the snapshot barrier
	// per batch. Its record buffer lives as long as the connection.
	q := newIngestQueue(s.cfg.IngestBuffer, &s.metrics.BackpressureDropped)
	applierDone := make(chan struct{})
	go func() {
		defer close(applierDone)
		var recs []wal.Record
		q.drain(func(obs []Observation) {
			var err error
			if recs, err = s.reg.observeBatch(obs, recs); err != nil {
				clog.Warn("service: ingest error", "err", err)
			}
		})
	}()

	// Reader: decode lines into a batch, shedding oversized frames and
	// malformed lines with accounting — none of them cost the client its
	// connection. The batch goes to the applier when it is full and
	// before every read of the socket, so a line never waits for bytes
	// that may not come, and one read of a busy socket is one batch.
	// Lines the applier has no room for are shed and counted. Only
	// silence past the idle timeout (or the remote hanging up) ends the
	// stream.
	var batch *obsBatch
	handoff := func() {
		if batch == nil {
			return
		}
		q.admit(batch)
		batch = nil
	}
	sr := NewLineScanner(readHook{r: c, before: func() {
		handoff()
		if s.cfg.IdleTimeout > 0 {
			c.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
	}}, s.cfg.MaxLineBytes)
	var oversized uint64
	for {
		ok := sr.Scan()
		if n := sr.Oversized(); n != oversized {
			s.metrics.OversizedDropped.Add(n - oversized)
			oversized = n
		}
		if !ok {
			break
		}
		line := bytes.TrimSpace(sr.Bytes())
		if len(line) == 0 {
			continue
		}
		if batch == nil {
			batch = getBatch()
		}
		if err := batch.decode(line); err != nil {
			s.metrics.MalformedDropped.Add(1)
			continue
		}
		if len(batch.obs) == maxBatchLines {
			handoff()
		}
	}
	handoff()
	if err := sr.Err(); err != nil && !errors.Is(err, net.ErrClosed) {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			// An expired read deadline is either the idle timeout firing
			// or shutdown unblocking the reader; only the former is an
			// idle disconnect.
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if !closed {
				s.metrics.IdleDisconnects.Add(1)
				clog.Info("service: disconnecting idle client", "idle_timeout", s.cfg.IdleTimeout)
			}
		} else {
			clog.Warn("service: connection error", "err", err)
		}
	}

	// Teardown: let the applier finish what was admitted, detach from
	// broadcast, close the socket.
	q.close()
	<-applierDone
	s.mu.Lock()
	delete(s.conns, sc)
	close(sc.events)
	s.mu.Unlock()
	<-writerDone
	c.Close()
	sc.torn.Store(true)
}

// connAddr renders a connection's peer address, tolerating conns (test
// doubles, some unix sockets) without one.
func connAddr(c net.Conn) string {
	if a := c.RemoteAddr(); a != nil {
		return a.String()
	}
	return "unknown"
}

// broadcast fans one round outcome out to every connected client,
// shedding events for subscribers whose outbound buffer is full.
func (s *Server) broadcast(out RoundOutcome) {
	b := EventFromOutcome(out).Encode()
	s.mu.Lock()
	defer s.mu.Unlock()
	for sc := range s.conns {
		select {
		case sc.events <- b:
		default:
			s.metrics.EventsDropped.Add(1)
		}
	}
}
