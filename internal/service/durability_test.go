package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/vanet"
	"voiceprint/internal/wal"
)

func walTestConfig(t *testing.T, dir string) Config {
	t.Helper()
	return Config{
		Network:  "tcp",
		Addr:     "127.0.0.1:0",
		Registry: RegistryConfig{Monitor: testMonitorConfig()},
		Period:   time.Hour, // rounds fire only when the test asks
		WAL:      &WALConfig{Dir: dir, SnapshotInterval: -1},
	}
}

// bootServer starts a server whose lifecycle the test drives by hand
// (unlike startServer's Cleanup-managed shutdown).
func bootServer(t *testing.T, cfg Config) (*Server, func() error) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	return srv, func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			return errors.New("server did not shut down")
		}
	}
}

// feedDurable pushes a deterministic multi-identity trace through the
// registry (journaling it in the ingest applier's batches) and fires two
// detection rounds.
func feedDurable(t *testing.T, srv *Server) {
	t.Helper()
	reg := srv.Registry()
	for round := 0; round < 2; round++ {
		var obs []Observation
		for i := 0; i < 50; i++ {
			tms := int64(round)*5000 + int64(i)*100
			wave := -60 - float64(i%9)
			for _, id := range []vanet.NodeID{101, 102} {
				obs = append(obs, Observation{Recv: 9, Sender: id, TMs: tms, RSSI: wave})
			}
			obs = append(obs, Observation{Recv: 9, Sender: 1, TMs: tms, RSSI: -55 - float64((i*3)%11)})
		}
		if _, err := reg.observeBatch(obs, nil); err != nil {
			t.Fatal(err)
		}
		for _, out := range srv.DetectNow() {
			if out.Err != nil {
				t.Fatal(out.Err)
			}
		}
	}
}

// fleetStates captures every receiver's full monitor state.
func fleetStates(srv *Server) map[vanet.NodeID]*core.MonitorState {
	states := map[vanet.NodeID]*core.MonitorState{}
	reg := srv.Registry()
	for _, recv := range reg.Receivers() {
		states[recv] = reg.Monitor(recv).State()
	}
	return states
}

// TestServerWALCrashRecoveryStateParity kills the WAL mid-flight (no
// final fsync, no snapshot) and reboots on the same directory: the
// recovered fleet must be state-identical to the crashed one.
func TestServerWALCrashRecoveryStateParity(t *testing.T) {
	dir := t.TempDir()
	srv, stop := bootServer(t, walTestConfig(t, dir))
	feedDurable(t, srv)
	want := fleetStates(srv)
	srv.WAL().Abort()
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	srv2, stop2 := bootServer(t, walTestConfig(t, dir))
	defer func() {
		if err := stop2(); err != nil {
			t.Error(err)
		}
	}()
	if got := fleetStates(srv2); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered fleet state differs:\n got %+v\nwant %+v", got, want)
	}
	if got := srv2.Metrics().WALReplayedRecords.Load(); got == 0 {
		t.Error("crash recovery replayed no records")
	}
}

// TestServerWALGracefulRestartUsesSnapshot: a clean shutdown compacts
// the journal, so the next boot restores purely from the snapshot —
// zero replayed records — and still reaches the identical fleet state.
func TestServerWALGracefulRestartUsesSnapshot(t *testing.T) {
	dir := t.TempDir()
	srv, stop := bootServer(t, walTestConfig(t, dir))
	feedDurable(t, srv)
	want := fleetStates(srv)
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	srv2, stop2 := bootServer(t, walTestConfig(t, dir))
	defer func() {
		if err := stop2(); err != nil {
			t.Error(err)
		}
	}()
	if got := fleetStates(srv2); !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot-restored fleet state differs:\n got %+v\nwant %+v", got, want)
	}
	if got := srv2.Metrics().WALReplayedRecords.Load(); got != 0 {
		t.Errorf("graceful restart replayed %d records, want 0 (shutdown snapshot compacts)", got)
	}
}

// TestServerWALDisabled: a nil Config.WAL keeps the in-memory behavior
// — no journal, no snapshot surface, no WAL section in health.
func TestServerWALDisabled(t *testing.T) {
	cfg := walTestConfig(t, "")
	cfg.WAL = nil
	srv, stop := bootServer(t, cfg)
	defer func() {
		if err := stop(); err != nil {
			t.Error(err)
		}
	}()
	if srv.WAL() != nil {
		t.Error("WAL() non-nil without Config.WAL")
	}
	if _, err := srv.Snapshot(); !errors.Is(err, ErrWALDisabled) {
		t.Errorf("Snapshot without WAL = %v, want ErrWALDisabled", err)
	}
	if h := srv.Health(); h.WAL != nil {
		t.Errorf("health reports WAL section without a WAL: %+v", h.WAL)
	}
}

// TestHealthzJSON pins the upgraded /healthz: JSON readiness with build
// version and WAL lag, 503 once the scheduler stalls, recovering after
// a round completes.
func TestHealthzJSON(t *testing.T) {
	dir := t.TempDir()
	cfg := walTestConfig(t, dir)
	cfg.Period = 50 * time.Millisecond
	srv, stop := bootServer(t, cfg)
	defer func() {
		if err := stop(); err != nil {
			t.Error(err)
		}
	}()
	h := NewAdminHandler(AdminConfig{
		Metrics:  srv.Metrics(),
		Registry: srv.Registry(),
		Health:   srv.Health,
		Version:  "test-build-1",
	})
	get := func() (int, Health) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var rep Health
		if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
			t.Fatalf("/healthz body %q: %v", rec.Body.String(), err)
		}
		return rec.Code, rep
	}

	// Fresh daemon, no receivers: ok, no round yet, WAL section present.
	code, rep := get()
	if code != http.StatusOK || rep.Status != "ok" {
		t.Errorf("fresh healthz = %d %q", code, rep.Status)
	}
	if rep.Version != "test-build-1" {
		t.Errorf("version = %q", rep.Version)
	}
	if rep.WAL == nil {
		t.Error("healthz missing WAL section with durability on")
	} else if rep.WAL.LastSnapshotAgeMs != -1 {
		t.Errorf("last_snapshot_age_ms = %d before any snapshot", rep.WAL.LastSnapshotAgeMs)
	}

	// A receiver plus a silent scheduler for >3 periods (and >3 s floor,
	// faked by backdating the start) reads stalled, 503.
	if err := srv.Registry().Observe(Observation{Recv: 1, Sender: 2, TMs: 0, RSSI: -70}); err != nil {
		t.Fatal(err)
	}
	srv.started = time.Now().Add(-time.Minute)
	srv.sched.lastRound.Store(0) // no round ever
	if code, rep = get(); code != http.StatusServiceUnavailable || rep.Status != "stalled" {
		t.Errorf("stalled healthz = %d %q, want 503 stalled", code, rep.Status)
	}
	if rep.Receivers != 1 || rep.LastRoundAgeMs != -1 {
		t.Errorf("stalled report = %+v", rep)
	}

	// A completed round restores readiness and ages the round stamp.
	srv.DetectNow()
	if code, rep = get(); code != http.StatusOK || rep.Status != "ok" || rep.LastRoundAgeMs < 0 {
		t.Errorf("post-round healthz = %d %+v", code, rep)
	}
}

// TestSnapshotEndpoint: POST triggers a compaction and reports it; GET
// is rejected; an in-flight snapshot yields 409.
func TestSnapshotEndpoint(t *testing.T) {
	dir := t.TempDir()
	srv, stop := bootServer(t, walTestConfig(t, dir))
	defer func() {
		if err := stop(); err != nil {
			t.Error(err)
		}
	}()
	feedDurable(t, srv)
	h := NewAdminHandler(AdminConfig{
		Metrics:  srv.Metrics(),
		Registry: srv.Registry(),
		Health:   srv.Health,
		Snapshot: srv.Snapshot,
	})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/snapshot", nil))
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != http.MethodPost {
		t.Errorf("GET /snapshot = %d Allow=%q", rec.Code, rec.Header().Get("Allow"))
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/snapshot", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /snapshot = %d %s", rec.Code, rec.Body.String())
	}
	var info wal.SnapshotInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Receivers != 1 || info.Bytes == 0 {
		t.Errorf("snapshot info = %+v", info)
	}

	srv.snapBusy.Store(true) // hold the single snapshot slot
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/snapshot", nil))
	if rec.Code != http.StatusConflict {
		t.Errorf("POST /snapshot while busy = %d, want 409", rec.Code)
	}
	srv.snapBusy.Store(false)
}

// TestJournaledObserveAllocs pins the journaled ingest path — WAL
// append under the snapshot barrier, then the monitor apply — at zero
// allocations per beacon on a warmed receiver, for plain and for
// positioned beacons alike.
func TestJournaledObserveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	metrics := &Metrics{}
	reg, err := NewRegistry(RegistryConfig{Monitor: testMonitorConfig()}, metrics)
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := wal.Open(wal.Options{Dir: t.TempDir(), Policy: wal.SyncNone, Stats: metrics.walStats()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	reg.SetJournal(l)
	var tMs int64 // one stream clock across the cases: a beacon behind it is dropped as stale
	for _, tc := range []struct {
		name  string
		pos   *Position
		stale bool
	}{
		{"plain", nil, false},
		{"positioned", &Position{X: 42.5, Y: -3.75}, false},
		{"stale", nil, true},
	} {
		o := Observation{Recv: 901, Sender: 1002, RSSI: -68.5, Pos: tc.pos}
		if tc.pos != nil {
			o.Schema = 1
		}
		step := func() {
			if tc.stale {
				o.TMs = tMs - 1000 // further behind the clock than the 500 ms tolerance
			} else {
				tMs += 100
				o.TMs = tMs
			}
			if err := reg.Observe(o); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2000; i++ { // warm the monitor, its series and the WAL buffer
			step()
		}
		dropped := metrics.StaleDropped.Load()
		if got := testing.AllocsPerRun(200, step); got != 0 {
			t.Errorf("%s beacon: %v allocs, want 0", tc.name, got)
		}
		want := uint64(0)
		if tc.stale {
			want = 201 // AllocsPerRun runs step once more than it counts
		}
		if got := metrics.StaleDropped.Load() - dropped; got != want {
			t.Errorf("%s beacon: %d stale drops in 201 runs, want %d", tc.name, got, want)
		}
	}
	if got, want := metrics.ObservationsIngested.Load(), uint64(2*(2000+201)); got != want {
		t.Errorf("ingested %d beacons, want %d: a fresh beacon's budget measured a drop path", got, want)
	}
}

// TestJournaledObserveBatchAllocs pins the per-batch journaled ingest
// path — one WAL append of the batch under the snapshot barrier, then
// every apply — at zero allocations on warmed receivers, with a record
// buffer reused across batches as the connection applier reuses it.
func TestJournaledObserveBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	metrics := &Metrics{}
	reg, err := NewRegistry(RegistryConfig{Monitor: testMonitorConfig()}, metrics)
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := wal.Open(wal.Options{Dir: t.TempDir(), Policy: wal.SyncNone, Stats: metrics.walStats()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	reg.SetJournal(l)
	batch := make([]Observation, 512)
	for i := range batch {
		batch[i] = Observation{Recv: 901, Sender: vanet.NodeID(1000 + i%8), RSSI: -60 - float64(i%13)}
		if i%2 == 1 {
			batch[i].Schema, batch[i].Pos = 1, &Position{X: float64(i), Y: -3.75}
		}
	}
	var tMs int64
	var recs []wal.Record
	step := func() {
		for i := range batch {
			tMs += 25
			batch[i].TMs = tMs
		}
		if recs, err = reg.observeBatch(batch, recs); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ { // warm the monitor, its series, the WAL buffer and recs
		step()
	}
	if got := testing.AllocsPerRun(50, step); got != 0 {
		t.Errorf("journaled batch of %d: %v allocs, want 0", len(batch), got)
	}
	if got, want := metrics.ObservationsIngested.Load(), uint64(len(batch)*(40+51)); got != want {
		t.Errorf("ingested %d beacons, want %d", got, want)
	}
}

// TestObserveBatchOneJournalWrite pins the batched journal: one
// observeBatch is one WAL write (under SyncAlways every write is one
// fsync, so the fsync counter counts writes) that carries every record,
// the journal holds them in the order they were applied, and replaying
// it into a fresh registry rebuilds the same monitor state.
func TestObserveBatchOneJournalWrite(t *testing.T) {
	metrics := &Metrics{}
	reg, err := NewRegistry(RegistryConfig{Monitor: testMonitorConfig()}, metrics)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	l, _, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncAlways, Stats: metrics.walStats()})
	if err != nil {
		t.Fatal(err)
	}
	reg.SetJournal(l)
	// Two receivers interleaved, plain and positioned beacons, and every
	// 50th beacon far enough behind its receiver's clock to be dropped
	// as stale: the monitor state depends on the apply order.
	obs := make([]Observation, 1000)
	for i := range obs {
		o := Observation{Recv: vanet.NodeID(7 + i%2), Sender: vanet.NodeID(100 + i%5), TMs: int64(i) * 40, RSSI: -55 - float64(i%17)}
		if i%3 == 0 {
			o.Schema, o.Pos = 1, &Position{X: float64(i % 40), Y: 2.5}
		}
		if i%50 == 49 {
			o.TMs -= 2000
		}
		obs[i] = o
	}
	if _, err := reg.observeBatch(obs, nil); err != nil {
		t.Fatal(err)
	}
	if got := metrics.WALFsyncs.Load(); got != 1 {
		t.Errorf("one batch took %d WAL writes, want 1", got)
	}
	if got := metrics.WALAppends.Load(); got != uint64(len(obs)) {
		t.Errorf("journaled %d records, want %d", got, len(obs))
	}
	if got := metrics.StaleDropped.Load(); got != 20 {
		t.Errorf("stale drops = %d, want 20", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var journaled []Observation
	if err := rec.Replay(func(r wal.Record) error {
		o := Observation{Recv: r.Recv, Sender: r.Sender, TMs: r.T.Milliseconds(), RSSI: r.RSSI}
		if r.Kind == wal.KindObservationPos {
			o.Schema, o.Pos = 1, &Position{X: r.X, Y: r.Y}
		}
		journaled = append(journaled, o)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(journaled, obs) {
		t.Fatalf("journal differs from the batch (%d records, want %d)", len(journaled), len(obs))
	}
	replayed, err := NewRegistry(RegistryConfig{Monitor: testMonitorConfig()}, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range journaled {
		if err := replayed.Observe(o); err != nil {
			t.Fatal(err)
		}
	}
	for _, recv := range reg.Receivers() {
		if got, want := replayed.Monitor(recv).State(), reg.Monitor(recv).State(); !reflect.DeepEqual(got, want) {
			t.Errorf("receiver %d: state replayed from the journal differs from the applied state", recv)
		}
	}
}
