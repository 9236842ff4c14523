package service

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"

	"voiceprint/internal/wal"
)

// AdminConfig configures the daemon's HTTP admin surface.
type AdminConfig struct {
	// Metrics is the instrument set to serve. Required.
	Metrics *Metrics
	// Registry, when non-nil, adds the scrape-time identity gauges
	// (receivers, identities tracked/evicted/confirmed).
	Registry *Registry
	// Health, when non-nil, upgrades /healthz from the legacy
	// unconditional "ok" to a JSON readiness report (Server.Health):
	// scheduler liveness plus WAL/snapshot lag, with a 503 when stalled.
	Health func() Health
	// Snapshot, when non-nil, mounts POST /snapshot, triggering one
	// journal compaction (Server.Snapshot) for rolling-restart handoff.
	Snapshot func() (wal.SnapshotInfo, error)
	// Version, when non-empty, is reported in the /healthz JSON.
	Version string
	// Pprof additionally mounts net/http/pprof under /debug/pprof/ and
	// expvar under /debug/vars. Off by default: the profiling endpoints
	// expose heap contents, execution traces and command lines, so they
	// are opt-in and belong behind a loopback-bound admin listener (the
	// daemon's -pprof flag). They share the admin mux rather than the
	// process-global http.DefaultServeMux, so enabling them never leaks
	// onto another listener.
	Pprof bool
}

// NewAdminHandler serves the daemon's HTTP admin surface:
//
//	GET /healthz              — readiness: with AdminConfig.Health wired, a
//	                            JSON report of scheduler liveness, build
//	                            version and WAL/snapshot lag (503 when
//	                            stalled); without it, the legacy
//	                            unconditional "ok\n"
//	POST /snapshot            — with AdminConfig.Snapshot wired, trigger one
//	                            journal compaction (rolling-restart handoff)
//	GET /metrics              — Prometheus text exposition: counters, identity
//	                            gauges, and round-latency/stage histograms
//	/debug/pprof/*, /debug/vars — optional, see AdminConfig.Pprof
func NewAdminHandler(cfg AdminConfig) http.Handler {
	obsReg := cfg.Metrics.Instruments(cfg.Registry)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Health == nil {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ok")
			return
		}
		h := cfg.Health()
		h.Version = cfg.Version
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if h.Status != "ok" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(h)
	})
	if cfg.Snapshot != nil {
		mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				w.Header().Set("Allow", http.MethodPost)
				http.Error(w, "snapshot trigger requires POST", http.StatusMethodNotAllowed)
				return
			}
			info, err := cfg.Snapshot()
			switch {
			case errors.Is(err, ErrSnapshotInFlight):
				http.Error(w, err.Error(), http.StatusConflict)
				return
			case err != nil:
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			json.NewEncoder(w).Encode(info)
		})
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obsReg.WritePrometheus(w)
	})
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/debug/vars", expvar.Handler())
	}
	return mux
}
