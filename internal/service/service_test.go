package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/lda"
	"voiceprint/internal/timeseries"
	"voiceprint/internal/trace"
	"voiceprint/internal/vanet"
)

const beat = 100 * time.Millisecond

// testBoundary matches the calibration of the synthetic channel below
// (see internal/core's detector tests): Sybil pairs normalize well under
// it, coincidental normal pairs stay above.
func testBoundary() lda.Boundary { return lda.Boundary{K: 0.0001, B: 0.005} }

func testMonitorConfig() core.MonitorConfig {
	det := core.DefaultConfig(testBoundary())
	det.MinMedianRSSIDBm = 0 // keep every synthetic vehicle in view
	return core.MonitorConfig{Detector: det}
}

// sybilTrace synthesizes a multi-receiver trace: per receiver, one
// attacker radio broadcasting identities 1, 101, 102 (one shared channel
// trace, per-identity TX offsets and independent measurement noise) plus
// normals 2..2+normals-1 on independent channels. Beacons every 100 ms
// for dur, records in (time, receiver, sender) order.
func sybilTrace(seed int64, receivers []vanet.NodeID, normals int, dur time.Duration) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	steps := int(dur / beat)
	type chanTrace []float64
	walk := func() chanTrace {
		// A passing-vehicle channel like core's detector tests: log-
		// distance path loss along a drive-by trajectory (tens of dB of
		// slow shape for DTW to key on) plus correlated shadowing.
		out := make(chanTrace, steps)
		dy := 10 + 40*rng.Float64()
		dx := (rng.Float64()*2 - 1) * 300
		vrel := 8 + 12*rng.Float64()
		if rng.Float64() < 0.5 {
			vrel = -vrel
		}
		epochLeft := rng.ExpFloat64() * 5
		shadow := rng.NormFloat64()
		const rho = 0.905
		for i := range out {
			d := math.Sqrt(dy*dy + dx*dx)
			if i > 0 {
				shadow = rho*shadow + math.Sqrt(1-rho*rho)*rng.NormFloat64()
			}
			out[i] = -30 - 20*math.Log10(d) + 3*shadow
			dx += vrel * 0.1
			epochLeft -= 0.1
			if epochLeft <= 0 {
				// Speed-change kink, direction persisting — the
				// idiosyncratic shape DTW keys on.
				epochLeft = rng.ExpFloat64() * 5
				mag := 8 + 12*rng.Float64()
				vrel = math.Copysign(mag, vrel)
			}
			if dx > 350 {
				vrel = -math.Abs(vrel)
			} else if dx < -350 {
				vrel = math.Abs(vrel)
			}
		}
		return out
	}
	var records []trace.Record
	type idChan struct {
		id     vanet.NodeID
		tr     chanTrace
		offset float64
	}
	perRecv := make(map[vanet.NodeID][]idChan)
	for _, recv := range receivers {
		shared := walk()
		ids := []idChan{
			{1, shared, 0},
			{101, shared, 3},  // Sybil at +3 dB TX power
			{102, shared, -3}, // Sybil at -3 dB TX power
		}
		for n := 0; n < normals; n++ {
			ids = append(ids, idChan{vanet.NodeID(2 + n), walk(), 0})
		}
		perRecv[recv] = ids
	}
	for step := 0; step < steps; step++ {
		t := time.Duration(step) * beat
		for _, recv := range receivers {
			for _, ic := range perRecv[recv] {
				records = append(records, trace.Record{
					Receiver: recv,
					Sender:   ic.id,
					T:        t,
					RSSI:     ic.tr[step] + ic.offset + 1.0*rng.NormFloat64(),
				})
			}
		}
	}
	return records
}

func recordsCSV(t *testing.T, records []trace.Record) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, records); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func suspectsOf(out RoundOutcome) []vanet.NodeID {
	if out.Result == nil {
		return nil
	}
	return sortedIDs(out.Result.Suspects)
}

func idsEqual(a, b []vanet.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// offlineRounds is the pre-service batch path: per receiver, a stateless
// Detector over explicit windows with its own density estimator — the
// original cmd/voiceprint loop. It is the parity reference for replay.
func offlineRounds(t *testing.T, records []trace.Record, observation, period time.Duration) map[vanet.NodeID]map[time.Duration][]vanet.NodeID {
	t.Helper()
	cfg := testMonitorConfig()
	byReceiver := make(map[vanet.NodeID][]trace.Record)
	var horizon time.Duration
	for _, r := range records {
		byReceiver[r.Receiver] = append(byReceiver[r.Receiver], r)
		if r.T > horizon {
			horizon = r.T
		}
	}
	out := make(map[vanet.NodeID]map[time.Duration][]vanet.NodeID)
	for recv, recs := range byReceiver {
		det, err := core.New(cfg.Detector)
		if err != nil {
			t.Fatal(err)
		}
		est, err := core.NewDensityEstimator(400)
		if err != nil {
			t.Fatal(err)
		}
		series, err := trace.ToSeries(recs)
		if err != nil {
			t.Fatal(err)
		}
		rounds := make(map[time.Duration][]vanet.NodeID)
		for end := period; end <= horizon+period; end += period {
			from := end - observation
			if from < 0 {
				from = 0
			}
			input := make(map[vanet.NodeID]*timeseries.Series)
			heard := make([]vanet.NodeID, 0)
			for id, s := range series {
				w := s.Window(from, end)
				if w.Len() == 0 {
					continue
				}
				input[id] = w
				heard = append(heard, id)
			}
			density := est.Estimate(heard)
			res, err := det.Detect(input, density)
			if err != nil {
				t.Fatal(err)
			}
			est.Record(res.Suspects)
			rounds[end] = sortedIDs(res.Suspects)
		}
		out[recv] = rounds
	}
	return out
}

// TestReplayMatchesOfflineBatch is the acceptance check: replaying a
// Sybil trace through the streaming ingest path yields exactly the
// suspects the offline batch loop computes, round for round, and both
// convict the Sybil cluster.
func TestReplayMatchesOfflineBatch(t *testing.T) {
	receivers := []vanet.NodeID{901, 902}
	records := sybilTrace(7, receivers, 5, 60*time.Second)
	const observation, period = 20 * time.Second, 20 * time.Second

	want := offlineRounds(t, records, observation, period)

	got := make(map[vanet.NodeID]map[time.Duration][]vanet.NodeID)
	metrics := &Metrics{}
	_, err := Replay(context.Background(), recordsCSV(t, records), ReplayConfig{
		Registry: RegistryConfig{Monitor: testMonitorConfig()},
		Period:   period,
	}, metrics, func(out RoundOutcome) {
		if out.Err != nil {
			t.Fatalf("round %d@%v: %v", out.Recv, out.At, out.Err)
		}
		if got[out.Recv] == nil {
			got[out.Recv] = make(map[time.Duration][]vanet.NodeID)
		}
		got[out.Recv][out.At] = suspectsOf(out)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := metrics.ObservationsIngested.Load(); n != uint64(len(records)) {
		t.Errorf("ingested %d of %d records", n, len(records))
	}

	for _, recv := range receivers {
		if len(got[recv]) == 0 {
			t.Fatalf("no rounds for receiver %d", recv)
		}
		for at, wantSuspects := range want[recv] {
			if !idsEqual(got[recv][at], wantSuspects) {
				t.Errorf("receiver %d round %v: replay=%v offline=%v",
					recv, at, got[recv][at], wantSuspects)
			}
		}
		if len(got[recv]) != len(want[recv]) {
			t.Errorf("receiver %d: replay ran %d rounds, offline %d",
				recv, len(got[recv]), len(want[recv]))
		}
		// And the rounds actually convict the planted cluster.
		full := got[recv][60*time.Second]
		for _, id := range []vanet.NodeID{1, 101, 102} {
			found := false
			for _, s := range full {
				if s == id {
					found = true
				}
			}
			if !found {
				t.Errorf("receiver %d: cluster identity %d not flagged (got %v)", recv, id, full)
			}
		}
	}
}

// TestReplayCancellation: a cancelled context aborts mid-trace.
func TestReplayCancellation(t *testing.T) {
	records := sybilTrace(9, []vanet.NodeID{901}, 3, 30*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Replay(ctx, recordsCSV(t, records), ReplayConfig{
		Registry: RegistryConfig{Monitor: testMonitorConfig()},
	}, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Errorf("err = %v, want context cancellation", err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func startServer(t *testing.T, cfg Config) (*Server, context.CancelFunc, chan error) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, cancel, done
}

func sendLines(t *testing.T, conn net.Conn, lines []string) {
	t.Helper()
	w := bufio.NewWriter(conn)
	for _, line := range lines {
		if _, err := w.WriteString(line + "\n"); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func obsLine(r trace.Record) string {
	return fmt.Sprintf(`{"recv":%d,"sender":%d,"t_ms":%d,"rssi":%.3f}`,
		r.Receiver, r.Sender, r.T.Milliseconds(), r.RSSI)
}

// TestServerConcurrentIngest streams a Sybil trace through two
// connections into two receivers, triggers a detection round, and
// asserts the same suspects as feeding the monitors directly — while a
// third connection consumes the verdict event stream. Run with -race.
func TestServerConcurrentIngest(t *testing.T) {
	receivers := []vanet.NodeID{901, 902}
	records := sybilTrace(11, receivers, 5, 40*time.Second)
	byRecv := make(map[vanet.NodeID][]trace.Record)
	for _, r := range records {
		byRecv[r.Receiver] = append(byRecv[r.Receiver], r)
	}

	srv, cancel, _ := startServer(t, Config{
		Network:      "tcp",
		Addr:         "127.0.0.1:0",
		Registry:     RegistryConfig{Monitor: testMonitorConfig()},
		Period:       time.Hour, // rounds only on DetectNow
		IngestBuffer: len(records),
	})
	defer cancel()
	addr := srv.Addr().String()

	// Event subscriber: connects first, sends nothing.
	sub, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	var wg sync.WaitGroup
	for _, recv := range receivers {
		recs := byRecv[recv]
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			lines := make([]string, len(recs))
			for i, r := range recs {
				lines[i] = obsLine(r)
			}
			sendLines(t, conn, lines)
		}()
	}
	wg.Wait()

	m := srv.Metrics()
	waitFor(t, "all observations ingested", func() bool {
		return m.ObservationsIngested.Load() == uint64(len(records))
	})
	if n := m.BackpressureDropped.Load(); n != 0 {
		t.Errorf("unexpected backpressure drops: %d", n)
	}

	outs := srv.DetectNow()
	if len(outs) != len(receivers) {
		t.Fatalf("DetectNow returned %d outcomes, want %d", len(outs), len(receivers))
	}

	// Reference: the same records fed straight into fresh monitors.
	for i, recv := range receivers {
		mon, err := core.NewMonitor(testMonitorConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range byRecv[recv] {
			if err := mon.Observe(r.Sender, r.T, r.RSSI); err != nil {
				t.Fatal(err)
			}
		}
		res, err := mon.Detect()
		if err != nil {
			t.Fatal(err)
		}
		want := sortedIDs(res.Suspects)
		if got := suspectsOf(outs[i]); !idsEqual(got, want) {
			t.Errorf("receiver %d: server suspects %v, direct monitor %v", recv, got, want)
		}
		if outs[i].Err != nil {
			t.Errorf("receiver %d round error: %v", recv, outs[i].Err)
		}
		for _, id := range []vanet.NodeID{1, 101, 102} {
			if outs[i].Result == nil || !outs[i].Result.Suspects[id] {
				t.Errorf("receiver %d: cluster identity %d not flagged", recv, id)
			}
		}
	}

	// The subscriber received one event per round, matching the outcomes.
	sub.SetReadDeadline(time.Now().Add(10 * time.Second))
	sc := bufio.NewScanner(sub)
	for i := 0; i < len(outs); i++ {
		if !sc.Scan() {
			t.Fatalf("event stream ended after %d events: %v", i, sc.Err())
		}
		var got, want Event
		if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
			t.Fatalf("event %d: %v (%s)", i, err, sc.Bytes())
		}
		if err := json.Unmarshal(EventFromOutcome(outs[i]).Encode(), &want); err != nil {
			t.Fatal(err)
		}
		if got.Recv != want.Recv || !idsEqual(got.Suspects, want.Suspects) {
			t.Errorf("event %d = %+v, want %+v", i, got, want)
		}
	}
}

// TestServerMalformedAndStale: garbage lines and observations older than
// the reorder tolerance (the registry's 500 ms default) are dropped with
// accounting, while slightly late ones are clamped in.
func TestServerMalformedAndStale(t *testing.T) {
	srv, cancel, _ := startServer(t, Config{
		Network:  "tcp",
		Addr:     "127.0.0.1:0",
		Registry: RegistryConfig{Monitor: testMonitorConfig()},
		Period:   time.Hour,
	})
	defer cancel()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sendLines(t, conn, []string{
		`not json at all`,
		`{"recv":1,"sender":2,"t_ms":-5,"rssi":-70}`,   // negative time
		`{"recv":1,"sender":2,"t_ms":2000,"rssi":-70}`, // ok
		`{"recv":1,"sender":3,"t_ms":1700,"rssi":-71}`, // late but within tolerance: clamped
		`{"recv":1,"sender":4,"t_ms":100,"rssi":-72}`,  // stale beyond tolerance: dropped
		``, // blank lines are ignored
		`{"recv":1,"sender":2,"t_ms":2100,"rssi":-70.5}`, // ok
	})

	m := srv.Metrics()
	waitFor(t, "drop accounting", func() bool {
		return m.ObservationsIngested.Load() == 3 &&
			m.MalformedDropped.Load() == 2 &&
			m.StaleDropped.Load() == 1
	})
	if mon := srv.Registry().Monitor(1); mon == nil || mon.Tracked() != 2 {
		t.Errorf("want 2 tracked identities (senders 2 and 3), got %v", mon)
	}
}

// TestServerBackpressureAccounting forces real overflow through a
// 1-slot ingest buffer while the receiver's monitor is pinned by a
// detection round over a large neighborhood.
func TestServerBackpressureAccounting(t *testing.T) {
	srv, cancel, _ := startServer(t, Config{
		Network:      "tcp",
		Addr:         "127.0.0.1:0",
		Registry:     RegistryConfig{Monitor: testMonitorConfig()},
		Period:       time.Hour,
		IngestBuffer: 1,
	})
	defer cancel()

	// Load one receiver with a big neighborhood so DetectNow holds its
	// monitor for a while.
	heavy := sybilTrace(13, []vanet.NodeID{901}, 40, 25*time.Second)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	lines := make([]string, len(heavy))
	for i, r := range heavy {
		lines[i] = obsLine(r)
	}
	sendLines(t, conn, lines)

	m := srv.Metrics()
	waitFor(t, "heavy trace ingested", func() bool {
		return m.ObservationsIngested.Load()+m.BackpressureDropped.Load() == uint64(len(heavy))
	})
	total := m.ObservationsIngested.Load() + m.BackpressureDropped.Load() + m.StaleDropped.Load()
	if total != uint64(len(heavy)) {
		t.Errorf("accounting leak: ingested+dropped = %d, sent %d", total, len(heavy))
	}
	// A detection round over ~43 identities takes long enough that a
	// burst into a 1-slot buffer sheds; run both concurrently.
	roundDone := make(chan struct{})
	go func() {
		defer close(roundDone)
		srv.DetectNow()
	}()
	burst := make([]string, 2000)
	last := heavy[len(heavy)-1].T
	for i := range burst {
		burst[i] = fmt.Sprintf(`{"recv":901,"sender":5,"t_ms":%d,"rssi":-66}`,
			(last + time.Duration(i+1)*time.Millisecond).Milliseconds())
	}
	sendLines(t, conn, burst)
	<-roundDone
	waitFor(t, "burst accounted", func() bool {
		return m.ObservationsIngested.Load()+m.BackpressureDropped.Load()+m.StaleDropped.Load() ==
			uint64(len(heavy)+len(burst))
	})
	t.Logf("burst of %d: %d shed by backpressure", len(burst), m.BackpressureDropped.Load())
}

// TestServerAppliesBeforeBlockingRead: the reader hands its decoded
// lines to the applier before any read that can block, so lines count
// as ingested while the client keeps the connection open and sends
// nothing more — including while the tail of a split line is still in
// flight.
func TestServerAppliesBeforeBlockingRead(t *testing.T) {
	srv, cancel, _ := startServer(t, Config{
		Network:  "tcp",
		Addr:     "127.0.0.1:0",
		Registry: RegistryConfig{Monitor: testMonitorConfig()},
		Period:   time.Hour,
	})
	defer cancel()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	line := func(i int) string {
		return fmt.Sprintf(`{"recv":5,"sender":%d,"t_ms":%d,"rssi":-70}`+"\n", 10+i, 100*i)
	}
	split := line(3)
	if _, err := io.WriteString(conn, line(0)+line(1)+line(2)+split[:17]); err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics()
	waitFor(t, "the complete lines before a split one", func() bool { return m.ObservationsIngested.Load() == 3 })
	if _, err := io.WriteString(conn, split[17:]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the split line", func() bool { return m.ObservationsIngested.Load() == 4 })
}

// TestServerGracefulShutdown: cancelling the serve context drains
// in-flight rounds and Serve returns cleanly (checked by the startServer
// cleanup), and connections are closed.
func TestServerGracefulShutdown(t *testing.T) {
	srv, cancel, done := startServer(t, Config{
		Network:  "tcp",
		Addr:     "127.0.0.1:0",
		Registry: RegistryConfig{Monitor: testMonitorConfig()},
		Period:   10 * time.Millisecond, // exercise live ticks
	})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	records := sybilTrace(15, []vanet.NodeID{901}, 3, 21*time.Second)
	lines := make([]string, len(records))
	for i, r := range records {
		lines[i] = obsLine(r)
	}
	sendLines(t, conn, lines)
	m := srv.Metrics()
	waitFor(t, "a live round", func() bool { return m.RoundsRun.Load() > 0 })
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve: %v", err)
		}
		done <- nil // let cleanup re-read
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
	// The closed server rejects nothing silently: the socket is gone.
	if _, err := net.DialTimeout("tcp", srv.Addr().String(), time.Second); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

// TestServerUnixSocket smoke-tests the unix transport.
func TestServerUnixSocket(t *testing.T) {
	sock := t.TempDir() + "/vp.sock"
	srv, cancel, _ := startServer(t, Config{
		Network:  "unix",
		Addr:     sock,
		Registry: RegistryConfig{Monitor: testMonitorConfig()},
		Period:   time.Hour,
	})
	defer cancel()
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sendLines(t, conn, []string{`{"recv":9,"sender":1,"t_ms":0,"rssi":-70}`})
	waitFor(t, "unix ingest", func() bool {
		return srv.Metrics().ObservationsIngested.Load() == 1
	})
}

// TestConcurrentIngestAndRounds drives Registry.Observe from multiple
// ingest goroutines while the scheduler ticks asynchronous rounds and
// fires synchronous DetectAll sweeps, both live and at a fixed boundary
// (Monitor.DetectAt) — the daemon's steady state.
// Run under -race this pins the monitor's reused round scratch (views,
// input map, pair buffer) as properly serialized.
func TestConcurrentIngestAndRounds(t *testing.T) {
	metrics := &Metrics{}
	reg, err := NewRegistry(RegistryConfig{Monitor: testMonitorConfig()}, metrics)
	if err != nil {
		t.Fatal(err)
	}
	var outcomes sync.Map
	sched, err := NewScheduler(reg, metrics, 4, func(out RoundOutcome) {
		if out.Err != nil {
			t.Error(out.Err)
		}
		outcomes.Store(out.Recv, out)
	})
	if err != nil {
		t.Fatal(err)
	}
	records := sybilTrace(77, []vanet.NodeID{501, 502, 503}, 5, 25*time.Second)
	perRecv := make(map[vanet.NodeID][]trace.Record)
	for _, rec := range records {
		perRecv[rec.Receiver] = append(perRecv[rec.Receiver], rec)
	}
	var wg sync.WaitGroup
	for _, recs := range perRecv {
		wg.Add(1)
		go func(recs []trace.Record) {
			defer wg.Done()
			for _, rec := range recs {
				err := reg.Observe(Observation{
					Recv:   rec.Receiver,
					Sender: rec.Sender,
					TMs:    rec.T.Milliseconds(),
					RSSI:   rec.RSSI,
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(recs)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		sched.Tick()
		_ = sched.DetectAll(-1)
		_ = sched.DetectAll(10 * time.Second)
		select {
		case <-done:
			sched.Drain()
			// Ingest has stopped: a full sweep reports the window end it
			// evaluated.
			for _, out := range sched.DetectAll(-1) {
				if out.Err != nil {
					t.Fatal(out.Err)
				}
				if out.At != out.Result.WindowEnd {
					t.Errorf("receiver %d: outcome At %v != WindowEnd %v", out.Recv, out.At, out.Result.WindowEnd)
				}
			}
			// Every returned round, async or swept, lands in the latency
			// histogram exactly once.
			if got, want := metrics.RoundLatency.Snapshot().Count, metrics.RoundsRun.Load(); got != want {
				t.Errorf("round latency histogram saw %d rounds, rounds_run_total is %d", got, want)
			}
			for _, recv := range []vanet.NodeID{501, 502, 503} {
				out, ok := outcomes.Load(recv)
				if !ok {
					continue // Tick may never have caught this receiver idle
				}
				if out.(RoundOutcome).Err != nil {
					t.Errorf("receiver %d: async round error %v", recv, out.(RoundOutcome).Err)
				}
			}
			return
		case <-time.After(time.Millisecond):
		}
	}
}
