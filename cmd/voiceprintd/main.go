// Command voiceprintd is the streaming Voiceprint daemon: the online
// counterpart of the offline cmd/voiceprint CLI. It ingests RSSI
// observation streams over a line-delimited NDJSON protocol (TCP or a
// Unix socket), shards them into per-receiver detectors, runs detection
// rounds on a worker pool once per period, and publishes Sybil verdicts
// as an NDJSON event stream to every connected client. An HTTP admin
// surface exposes /healthz and /metrics.
//
// Live mode:
//
//	voiceprintd -listen 127.0.0.1:8474 -admin 127.0.0.1:8475 \
//	            [-k 0.000025 -b 0.0067] [-observation 20s -period 20s] [-fusion]
//
// -fusion enables the multi-signal detector: observations may carry a
// schema-1 "pos" field with the sender's claimed coordinates, graded by
// the claimed-position consistency signal inside every monitor and by
// the cross-receiver co-observation clique coordinator on synchronized
// detection rounds (live mode; replay rounds are per-receiver and skip
// the coordinator). Verdict events then carry per-signal attribution in
// a "signals" field.
//
// One observation per line, one verdict event per round per receiver:
//
//	→ {"recv":901,"sender":102,"t_ms":18400,"rssi":-71.25}
//	← {"type":"round","recv":901,"t_ms":20000,"density":4.5,
//	   "considered":9,"suspects":[1,101,102],"confirmed":[1,101,102]}
//
// Replay mode feeds a recorded trace CSV (the cmd/vanet-sim format)
// through the same ingest path at a configurable speedup and writes the
// event stream to stdout; -speed 0 replays as fast as the detector
// keeps up, making `voiceprintd -replay trace.csv` a drop-in streaming
// equivalent of `voiceprint -trace trace.csv`:
//
//	voiceprintd -replay trace.csv [-speed 10]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/fusion"
	"voiceprint/internal/lda"
	"voiceprint/internal/service"
	"voiceprint/internal/wal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "voiceprintd: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", "127.0.0.1:8474", "TCP ingest/event listen address")
	socket := flag.String("socket", "", "Unix socket path (overrides -listen)")
	admin := flag.String("admin", "", "HTTP admin listen address (/healthz, /metrics); empty disables")
	k := flag.Float64("k", 0.000025, "boundary slope (Figure 10)")
	b := flag.Float64("b", 0.0067, "boundary intercept (Figure 10)")
	observation := flag.Duration("observation", 20*time.Second, "observation window")
	period := flag.Duration("period", 20*time.Second, "detection period")
	maxRange := flag.Float64("range", 1000, "max transmission range (m), for Eq 9 density estimation")
	confirmWindow := flag.Int("confirm-window", 1, "confirmation window N (rounds)")
	confirmNeed := flag.Int("confirm-need", 1, "flags needed within the window (K of N)")
	evictAfter := flag.Duration("evict-after", 0, "drop identities silent this long (0 = 2x observation)")
	tolerance := flag.Duration("reorder-tolerance", 500*time.Millisecond, "accept observations up to this far out of order (negative = strict ordering)")
	workers := flag.Int("workers", 0, "detection round worker pool size (0 = GOMAXPROCS)")
	fusionOn := flag.Bool("fusion", false, "enable the multi-signal fusion detector: claimed-position consistency per monitor plus cross-receiver co-observation cliques on synchronized rounds")
	ingestBuffer := flag.Int("ingest-buffer", 0, "per-connection bound on lines decoded but not yet applied (0 = default 4096)")
	eventBuffer := flag.Int("event-buffer", 0, "per-connection outbound verdict buffer (0 = default 256)")
	maxLineBytes := flag.Int("max-line-bytes", 0, "max inbound NDJSON line length (0 = default 64KiB)")
	idleTimeout := flag.Duration("idle-timeout", 0, "disconnect clients silent this long (0 disables; pure subscribers never write)")
	writeTimeout := flag.Duration("write-timeout", 0, "evict clients whose event write blocks this long (0 = default 5s)")
	drainTimeout := flag.Duration("drain-timeout", 0, "graceful-shutdown flush budget before force-closing connections (0 = default 2s)")
	replay := flag.String("replay", "", "replay a trace CSV through the ingest path and exit")
	speed := flag.Float64("speed", 0, "replay speedup vs stream time (0 = as fast as possible)")
	walDir := flag.String("wal-dir", "", "write-ahead log directory for durable detection state (empty disables)")
	walFsync := flag.String("wal-fsync", "interval", "WAL fsync policy: always, interval (group commit) or none")
	walFsyncInterval := flag.Duration("wal-fsync-interval", 0, "group-commit fsync period under -wal-fsync interval (0 = default 5ms)")
	snapshotInterval := flag.Duration("snapshot-interval", 0, "periodic WAL compaction cadence (0 = default 5m, negative disables)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	pprofFlag := flag.Bool("pprof", false, "expose /debug/pprof and /debug/vars on the admin address")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	ver := buildVersion()
	if *showVersion {
		fmt.Printf("voiceprintd %s %s\n", ver, runtime.Version())
		return nil
	}

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("-log-level %q: %w", *logLevel, err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	logger.Info("voiceprintd: starting", "version", ver, "go", runtime.Version())

	regCfg := service.RegistryConfig{
		Monitor: core.MonitorConfig{
			Detector:         core.DefaultConfig(lda.Boundary{K: *k, B: *b}),
			MaxRangeM:        *maxRange,
			ConfirmWindow:    *confirmWindow,
			ConfirmNeed:      *confirmNeed,
			EvictAfter:       *evictAfter,
			ReorderTolerance: *tolerance,
		},
	}
	regCfg.Monitor.Detector.ObservationTime = *observation
	regCfg.Monitor.Detector.Workers = *workers
	// Pruning leaves verdicts bit-identical: only a pair that cannot be
	// flagged keeps a lower bound in place of its distance, and events
	// carry no distances.
	regCfg.Monitor.Detector.LBPrune = true

	var coord service.RoundCoordinator
	if *fusionOn {
		regCfg.Monitor.Fusion = core.FusionOptions{
			Enabled: true,
			Signals: []core.Signal{fusion.NewPositionSignal()},
		}
		coord = fusion.NewCoordinator()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *replay != "" {
		return runReplay(ctx, *replay, regCfg, *period, *speed, logger)
	}

	cfg := service.Config{
		Network:      "tcp",
		Addr:         *listen,
		Registry:     regCfg,
		Period:       *period,
		Workers:      *workers,
		IngestBuffer: *ingestBuffer,
		EventBuffer:  *eventBuffer,
		MaxLineBytes: *maxLineBytes,
		IdleTimeout:  *idleTimeout,
		WriteTimeout: *writeTimeout,
		DrainTimeout: *drainTimeout,
		Coordinator:  coord,
		Logger:       logger,
	}
	if *socket != "" {
		cfg.Network, cfg.Addr = "unix", *socket
	}
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*walFsync)
		if err != nil {
			return fmt.Errorf("-wal-fsync: %w", err)
		}
		cfg.WAL = &service.WALConfig{
			Dir:              *walDir,
			Fsync:            policy,
			FsyncInterval:    *walFsyncInterval,
			SnapshotInterval: *snapshotInterval,
		}
	}
	srv, err := service.NewServer(cfg)
	if err != nil {
		return err
	}
	logger.Info("voiceprintd: ingest listening",
		"network", cfg.Network, "addr", srv.Addr().String(), "period", *period)

	if *admin != "" {
		adminCfg := service.AdminConfig{
			Metrics:  srv.Metrics(),
			Registry: srv.Registry(),
			Health:   srv.Health,
			Version:  ver,
			Pprof:    *pprofFlag,
		}
		if *walDir != "" {
			adminCfg.Snapshot = srv.Snapshot
		}
		adminSrv := &http.Server{
			Addr:    *admin,
			Handler: service.NewAdminHandler(adminCfg),
		}
		go func() {
			if err := adminSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("voiceprintd: admin server failed", "err", err)
			}
		}()
		defer adminSrv.Close()
		logger.Info("voiceprintd: admin listening", "addr", *admin, "pprof", *pprofFlag)
	}

	err = srv.Serve(ctx)
	logger.Info("voiceprintd: drained, exiting")
	return err
}

// buildVersion resolves the daemon's version from the embedded build
// info: the module version when built from a tagged release, otherwise
// the VCS revision (with a +dirty marker for uncommitted changes).
func buildVersion() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	ver := info.Main.Version
	if ver != "(devel)" && ver != "" {
		// A VCS-stamped build already carries the revision (and +dirty)
		// in its pseudo-version; don't append it twice.
		return ver
	}
	ver = "devel"
	var rev string
	dirty := false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		ver += "-" + rev
	}
	if dirty {
		ver += "+dirty"
	}
	return ver
}

// runReplay streams a trace CSV through the ingest path, printing the
// verdict event stream to stdout.
func runReplay(ctx context.Context, path string, regCfg service.RegistryConfig, period time.Duration, speed float64, logger *slog.Logger) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	metrics := &service.Metrics{}
	_, err = service.Replay(ctx, f, service.ReplayConfig{
		Registry: regCfg,
		Period:   period,
		Speed:    speed,
	}, metrics, func(out service.RoundOutcome) {
		os.Stdout.Write(service.EventFromOutcome(out).Encode())
	})
	if err != nil {
		return err
	}
	snap := metrics.Snapshot()
	logger.Info("voiceprintd: replay done",
		"observations", snap["observations_ingested_total"],
		"rounds", snap["rounds_run_total"],
		"suspects_flagged", snap["suspects_flagged_total"],
		"stale_dropped", snap["stale_dropped_total"])
	return nil
}
