package testkit

import (
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"voiceprint/internal/service"
)

// TestPrometheusCarriesSnapshotCounters drives a live server, then
// asserts the admin endpoint's Prometheus exposition carries every
// non-zero Metrics().Snapshot() counter — the map this kit's
// conservation accounting reads — under the voiceprintd_ namespace.
func TestPrometheusCarriesSnapshotCounters(t *testing.T) {
	srv, addr, stop := startHardenedServer(t, chaosServiceConfig(), Config{Seed: 1})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := int64(0); i < 5; i++ {
		if _, err := conn.Write(obsLine(t, 2, 1, 1000+i*100, -55)); err != nil {
			t.Fatal(err)
		}
	}
	m := srv.Metrics()
	waitFor(t, "ingest", func() bool { return m.ObservationsIngested.Load() == 5 })
	srv.DetectNow()
	// Shut down first so every counter is final: the comparison is
	// exact, not a race against a live server mid-scrape.
	stop()

	snap := m.Snapshot()
	if snap["observations_ingested_total"] != 5 || snap["rounds_run_total"] == 0 {
		t.Errorf("snapshot counters missing activity: %v", snap)
	}

	h := service.NewAdminHandler(service.AdminConfig{Metrics: m, Registry: srv.Registry()})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for key, v := range snap {
		if v == 0 {
			continue
		}
		if want := "voiceprintd_" + key; !containsLine(body, want, v) {
			t.Errorf("Prometheus exposition missing %s %d", want, v)
		}
	}
}

// containsLine reports whether the exposition has an exact "name value"
// sample line (prefix matching alone would let e.g. rounds_run_total
// shadow rounds_run_total_something).
func containsLine(body, name string, v uint64) bool {
	for _, line := range strings.Split(body, "\n") {
		if line == name+" "+strconv.FormatUint(v, 10) {
			return true
		}
	}
	return false
}
