package service

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/vanet"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden Prometheus exposition fixture")

// fixedMetrics builds a Metrics value with every instrument set to a
// deterministic state, so the exposition renders byte-stably.
func fixedMetrics() *Metrics {
	m := &Metrics{}
	m.ObservationsIngested.Add(1000)
	m.MalformedDropped.Add(3)
	m.StaleDropped.Add(2)
	m.BackpressureDropped.Add(1)
	m.OversizedDropped.Add(4)
	m.EventsDropped.Add(5)
	m.IdleDisconnects.Add(1)
	m.SlowClientsEvicted.Add(1)
	m.ConnsForceClosed.Add(1)
	m.ReceiversRejected.Add(6)
	m.RoundsRun.Add(50)
	m.RoundErrors.Add(2)
	m.RoundPanics.Add(1)
	m.RoundsCoalesced.Add(7)
	m.SuspectsFlagged.Add(12)
	m.ConnsOpened.Add(8)
	m.ConnsClosed.Add(8)
	m.WALAppends.Add(400)
	m.WALAppendErrors.Add(1)
	m.WALFsyncs.Add(37)
	m.WALReplayedRecords.Add(250)
	m.WALTruncations.Add(1)
	m.WALSnapshots.Add(3)
	m.WALSnapshotErrors.Add(1)
	m.WALFsyncLatency.Observe(120_000)      // 120 µs
	m.WALSnapshotLatency.Observe(2_000_000) // 2 ms
	m.WALSegmentBytes.Set(8192)
	m.WALSnapshotBytes.Set(4096)
	m.RoundLatency.Observe(900)        // first bucket
	m.RoundLatency.Observe(1_500_000)  // ~1.5 ms
	m.RoundLatency.Observe(40_000_000) // 40 ms
	m.IngestLag.Observe(0)
	m.IngestLag.Observe(250_000_000) // 250 ms
	for s := core.Stage(0); s < core.NumStages; s++ {
		m.StageLatency[s].Observe(int64(s+1) * 10_000)
	}
	return m
}

// TestPrometheusExpositionGolden pins the full /metrics text exposition:
// registration-order family ordering, HELP/TYPE headers, cumulative
// histogram buckets, and the per-stage constant labels. Regenerate
// deliberately with:
//
//	go test ./internal/service/ -run TestPrometheusExpositionGolden -update
func TestPrometheusExpositionGolden(t *testing.T) {
	// A minimal registry with one receiver tracking one identity makes
	// the registry-derived identity gauges deterministic, so the golden
	// pins the complete telemetry surface: a family added, renamed or
	// dropped in Instruments fails here.
	reg, err := NewRegistry(RegistryConfig{Monitor: testMonitorConfig()}, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Observe(Observation{Recv: 1, Sender: 2, TMs: 0, RSSI: -70}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := fixedMetrics().Instruments(reg).WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	const path = "testdata/metrics_golden.prom"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("Prometheus exposition drifted from %s (regenerate with -update if deliberate):\n--- got ---\n%s", path, got)
	}
}

// TestPrometheusExpositionShape sanity-checks scrape conventions on a
// live registry-backed handler without pinning bytes: every family has
// exactly one HELP and TYPE line, histogram bucket counts are cumulative
// and end at +Inf == _count, and the identity gauges render.
func TestPrometheusExpositionShape(t *testing.T) {
	m := &Metrics{}
	reg, err := NewRegistry(RegistryConfig{Monitor: testMonitorConfig()}, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Observe(Observation{Recv: 1, Sender: 2, TMs: 0, RSSI: -70}); err != nil {
		t.Fatal(err)
	}
	m.RoundLatency.Observe(5000)

	h := NewAdminHandler(AdminConfig{Metrics: m, Registry: reg})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rec.Body.String()

	lastField := func(line string) uint64 {
		fields := strings.Fields(line)
		v, err := strconv.ParseUint(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		return v
	}
	help, typ := map[string]int{}, map[string]int{}
	var infCount, totalCount uint64
	for _, line := range strings.Split(body, "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			help[strings.Fields(line)[2]]++
		case strings.HasPrefix(line, "# TYPE "):
			typ[strings.Fields(line)[2]]++
		case strings.HasPrefix(line, "voiceprintd_round_latency_ns_bucket{le=\"+Inf\"}"):
			infCount = lastField(line)
		case strings.HasPrefix(line, "voiceprintd_round_latency_ns_count"):
			totalCount = lastField(line)
		}
	}
	for fam, n := range help {
		if n != 1 {
			t.Errorf("family %s has %d HELP lines", fam, n)
		}
		if typ[fam] != 1 {
			t.Errorf("family %s has %d TYPE lines", fam, typ[fam])
		}
	}
	if infCount != totalCount || totalCount == 0 {
		t.Errorf("histogram invariant broken: +Inf bucket %d, _count %d", infCount, totalCount)
	}
	for _, want := range []string{
		"voiceprintd_receivers 1",
		"voiceprintd_identities_tracked 1",
		"voiceprintd_identities_evicted_total 0",
		"voiceprintd_identities_confirmed 0",
		`voiceprintd_round_stage_latency_ns_bucket{stage="compare",le="+Inf"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestStageHistogramsWired: rounds driven through the scheduler land
// per-stage timings in the metrics' stage histograms via the observer
// the registry installs.
func TestStageHistogramsWired(t *testing.T) {
	m := &Metrics{}
	reg, err := NewRegistry(RegistryConfig{Monitor: testMonitorConfig()}, m)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewScheduler(reg, m, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Three identities with distinct shapes, enough samples to compare.
	for i := 0; i < 60; i++ {
		tms := int64(i) * 100
		for sender := 1; sender <= 3; sender++ {
			rssi := -60 - float64(sender)*3 - float64(i%7)
			if err := reg.Observe(Observation{Recv: 9, Sender: vanet.NodeID(sender), TMs: tms, RSSI: rssi}); err != nil {
				t.Fatal(err)
			}
		}
	}
	out := sched.DetectOne(9, 6*time.Second)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	for s := core.Stage(0); s < core.NumStages; s++ {
		if got := m.StageLatency[s].Snapshot().Count; got != 1 {
			t.Errorf("stage %v observed %d times, want 1", s, got)
		}
	}
	if got := m.RoundLatency.Snapshot().Count; got != 1 {
		t.Errorf("round latency observed %d times, want 1", got)
	}
	if got := m.IngestLag.Snapshot().Count; got != 1 {
		t.Errorf("ingest lag observed %d times, want 1", got)
	}
}

// TestAdminPprofGating: the debug endpoints exist only when opted in.
func TestAdminPprofGating(t *testing.T) {
	m := &Metrics{}
	for _, tc := range []struct {
		pprof bool
		want  int
	}{{false, http.StatusNotFound}, {true, http.StatusOK}} {
		h := NewAdminHandler(AdminConfig{Metrics: m, Pprof: tc.pprof})
		for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != tc.want {
				t.Errorf("pprof=%v GET %s = %d, want %d", tc.pprof, path, rec.Code, tc.want)
			}
		}
	}
}
