// Command voiceprintd is the streaming Voiceprint daemon: the online
// counterpart of the offline cmd/voiceprint CLI. It ingests RSSI
// observation streams over a line-delimited NDJSON protocol (TCP or a
// Unix socket), shards them into per-receiver detectors, runs one
// detection sweep over every receiver once per period, and publishes
// Sybil verdicts as an NDJSON event stream to every connected client.
// An HTTP admin surface exposes /healthz and /metrics.
//
//	voiceprintd -listen 127.0.0.1:8474 -admin 127.0.0.1:8475 \
//	            [-k K -b B] [-observation 20s -period 20s] [-fusion]
//
// With no detection flags the daemon runs service.DefaultMonitorConfig,
// the posture the committed scorecard (SCORECARD.json) grades: the
// EXPERIMENTS.md Figure 10 boundary fit and the paper's 2-of-3
// multi-period confirmation. -k and -b override the boundary.
//
// -fusion enables the multi-signal detector: observations may carry a
// schema-1 "pos" field with the sender's claimed coordinates, graded by
// the claimed-position consistency signal inside every monitor and by
// the cross-receiver co-observation clique coordinator on every period's
// detection sweep. Verdict events then carry per-signal attribution in
// a "signals" field.
//
// One observation per line, one verdict event per round per receiver:
//
//	→ {"recv":901,"sender":102,"t_ms":18400,"rssi":-71.25}
//	← {"type":"round","recv":901,"t_ms":20000,"density":4.5,
//	   "considered":9,"suspects":[1,101,102],"confirmed":[1,101,102]}
//
// To run the detector over a recorded trace CSV instead, use
// cmd/voiceprint.
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

// daemonConfig is what the command line decides.
type daemonConfig struct {
	svc         service.Config
	admin       string
	logLevel    slog.Level
	pprof       bool
	showVersion bool
}

// configFromFlags parses args into the daemon's configuration. Every
// detection flag defaults to service.DefaultMonitorConfig, so a daemon
// run with no flags ships the posture the scorecard grades.
func configFromFlags(fs *flag.FlagSet, args []string) (daemonConfig, error) {
	mon := service.DefaultMonitorConfig()
	listen := fs.String("listen", "127.0.0.1:8474", "TCP ingest/event listen address")
	socket := fs.String("socket", "", "Unix socket path (overrides -listen)")
	admin := fs.String("admin", "", "HTTP admin listen address (/healthz, /metrics); empty disables")
	k := fs.Float64("k", mon.Detector.Boundary.K, "boundary slope (Figure 10)")
	b := fs.Float64("b", mon.Detector.Boundary.B, "boundary intercept (Figure 10)")
	observation := fs.Duration("observation", mon.Detector.ObservationTime, "observation window")
	period := fs.Duration("period", 20*time.Second, "detection period")
	maxRange := fs.Float64("range", 1000, "max transmission range (m), for Eq 9 density estimation")
	evictAfter := fs.Duration("evict-after", mon.EvictAfter, "drop identities silent this long (0 = 2x -observation)")
	tolerance := fs.Duration("reorder-tolerance", mon.ReorderTolerance, "accept observations up to this far out of order (negative = strict ordering)")
	workers := fs.Int("workers", 0, "detection round worker pool size (0 = GOMAXPROCS)")
	fusionOn := fs.Bool("fusion", false, "enable the multi-signal fusion detector: claimed-position consistency per monitor plus cross-receiver co-observation cliques on every period's sweep")
	ingestBuffer := fs.Int("ingest-buffer", 0, "per-connection bound on lines decoded but not yet applied (0 = default 4096)")
	eventBuffer := fs.Int("event-buffer", 0, "per-connection outbound verdict buffer (0 = default 256)")
	maxLineBytes := fs.Int("max-line-bytes", 0, "max inbound NDJSON line length (0 = default 64KiB)")
	idleTimeout := fs.Duration("idle-timeout", 0, "disconnect clients silent this long (0 disables; pure subscribers never write)")
	writeTimeout := fs.Duration("write-timeout", 0, "evict clients whose event write blocks this long (0 = default 5s)")
	drainTimeout := fs.Duration("drain-timeout", 0, "graceful-shutdown flush budget before force-closing connections (0 = default 2s)")
	walDir := fs.String("wal-dir", "", "write-ahead log directory for durable detection state (empty disables)")
	walFsync := fs.String("wal-fsync", "interval", "WAL fsync policy: always, interval (group commit) or none")
	walFsyncInterval := fs.Duration("wal-fsync-interval", 0, "group-commit fsync period under -wal-fsync interval (0 = default 5ms)")
	snapshotInterval := fs.Duration("snapshot-interval", 0, "periodic WAL compaction cadence (0 = default 5m, negative disables)")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
	pprofFlag := fs.Bool("pprof", false, "expose /debug/pprof and /debug/vars on the admin address")
	showVersion := fs.Bool("version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		return daemonConfig{}, err
	}

	dc := daemonConfig{admin: *admin, pprof: *pprofFlag, showVersion: *showVersion}
	if err := dc.logLevel.UnmarshalText([]byte(*logLevel)); err != nil {
		return daemonConfig{}, fmt.Errorf("-log-level %q: %w", *logLevel, err)
	}

	mon.Detector.Boundary = lda.Boundary{K: *k, B: *b}
	mon.Detector.ObservationTime = *observation
	mon.Detector.Workers = *workers
	mon.MaxRangeM = *maxRange
	mon.EvictAfter = *evictAfter
	mon.ReorderTolerance = *tolerance
	dc.svc = service.Config{
		Network:      "tcp",
		Addr:         *listen,
		Registry:     service.RegistryConfig{Monitor: mon},
		Period:       *period,
		Workers:      *workers,
		IngestBuffer: *ingestBuffer,
		EventBuffer:  *eventBuffer,
		MaxLineBytes: *maxLineBytes,
		IdleTimeout:  *idleTimeout,
		WriteTimeout: *writeTimeout,
		DrainTimeout: *drainTimeout,
	}
	if *fusionOn {
		dc.svc.Registry.Monitor.Fusion = core.FusionOptions{
			Enabled: true,
			Signals: []core.Signal{fusion.NewPositionSignal()},
		}
		dc.svc.Coordinator = fusion.NewCoordinator()
	}
	if *socket != "" {
		dc.svc.Network, dc.svc.Addr = "unix", *socket
	}
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*walFsync)
		if err != nil {
			return daemonConfig{}, fmt.Errorf("-wal-fsync: %w", err)
		}
		dc.svc.WAL = &service.WALConfig{
			Dir:              *walDir,
			Fsync:            policy,
			FsyncInterval:    *walFsyncInterval,
			SnapshotInterval: *snapshotInterval,
		}
	}
	return dc, nil
}

func run() error {
	dc, err := configFromFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		return err
	}
	ver := buildVersion()
	if dc.showVersion {
		fmt.Printf("voiceprintd %s %s\n", ver, runtime.Version())
		return nil
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: dc.logLevel}))
	logger.Info("voiceprintd: starting", "version", ver, "go", runtime.Version())
	cfg := dc.svc
	cfg.Logger = logger

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv, err := service.NewServer(cfg)
	if err != nil {
		return err
	}
	logger.Info("voiceprintd: ingest listening",
		"network", cfg.Network, "addr", srv.Addr().String(), "period", cfg.Period)

	if dc.admin != "" {
		adminCfg := service.AdminConfig{
			Metrics:  srv.Metrics(),
			Registry: srv.Registry(),
			Health:   srv.Health,
			Version:  ver,
			Pprof:    dc.pprof,
		}
		if cfg.WAL != nil {
			adminCfg.Snapshot = srv.Snapshot
		}
		adminSrv := &http.Server{
			Addr:    dc.admin,
			Handler: service.NewAdminHandler(adminCfg),
		}
		go func() {
			if err := adminSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("voiceprintd: admin server failed", "err", err)
			}
		}()
		defer adminSrv.Close()
		logger.Info("voiceprintd: admin listening", "addr", dc.admin, "pprof", dc.pprof)
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
