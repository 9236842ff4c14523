package testkit

import (
	"context"
	"encoding/json"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"voiceprint/internal/service"
	"voiceprint/internal/vanet"
)

// These tests point the chaos layer at the server's side of the link:
// Config.Listener lets the kit wrap the bound listener, so every write
// the daemon makes to a client passes through injected latency. That
// turns "a client stopped reading" — normally a timing-dependent TCP
// window condition — into a deterministic trigger for the eviction and
// drain paths.

// chaosListener wraps a net.Listener so every accepted connection gets
// its own deterministic chaos stream: the server side of a link made
// chaotic without touching the server's code.
type chaosListener struct {
	net.Listener
	cfg  Config
	next atomic.Int64
}

// Accept accepts from the underlying listener and wraps the connection
// with the next chaos stream.
func (l *chaosListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return WrapConn(c, l.cfg, l.next.Add(1)), nil
}

func startHardenedServer(t *testing.T, cfg service.Config, chaos Config) (*service.Server, string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Listener = &chaosListener{Listener: ln, cfg: chaos}
	if cfg.Period == 0 {
		cfg.Period = 24 * time.Hour
	}
	srv, err := service.NewServer(cfg)
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	stop := func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("serve: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("server did not shut down")
		}
	}
	return srv, ln.Addr().String(), stop
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func obsLine(t *testing.T, recv, sender vanet.NodeID, tms int64, rssi float64) []byte {
	t.Helper()
	b, err := json.Marshal(service.Observation{
		Recv: recv, Sender: sender, TMs: tms, RSSI: rssi,
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestSlowClientEviction: server-side chaos latency (80 ms per write)
// exceeds the write timeout (10 ms), so the first verdict event the
// daemon pushes to any client times out — exactly what a wedged
// subscriber with a full TCP window looks like — and the client must be
// evicted and counted, not allowed to pin the writer goroutine.
func TestSlowClientEviction(t *testing.T) {
	cfg := chaosServiceConfig()
	cfg.WriteTimeout = 10 * time.Millisecond
	srv, addr, stop := startHardenedServer(t, cfg, Config{Seed: 1, Latency: 80 * time.Millisecond})
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(obsLine(t, 2, 1, 1000, -55)); err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics()
	waitFor(t, "ingest", func() bool { return m.ObservationsIngested.Load() == 1 })

	srv.DetectNow() // broadcasts one event; the chaotic write must time out

	waitFor(t, "slow-client eviction", func() bool { return m.SlowClientsEvicted.Load() >= 1 })
	// Eviction closes the socket: the client sees EOF, not a stall.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	for {
		if _, err := conn.Read(buf); err != nil {
			break
		}
	}
	waitFor(t, "connection close accounting", func() bool {
		return m.ConnsClosed.Load() == m.ConnsOpened.Load()
	})
}

// TestForceCloseOnDrainTimeout: a verdict write is stuck in 500 ms of
// injected latency while the write timeout (10 s) is far away, then the
// server is told to shut down with a 30 ms drain budget. Graceful drain
// cannot finish — the force-close reaper must fire, count the
// connection, and let Serve return promptly instead of hanging on the
// stuck writer.
func TestForceCloseOnDrainTimeout(t *testing.T) {
	cfg := chaosServiceConfig()
	cfg.WriteTimeout = 10 * time.Second
	cfg.DrainTimeout = 30 * time.Millisecond
	srv, addr, stop := startHardenedServer(t, cfg, Config{Seed: 1, Latency: 500 * time.Millisecond})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(obsLine(t, 2, 1, 1000, -55)); err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics()
	waitFor(t, "ingest", func() bool { return m.ObservationsIngested.Load() == 1 })

	srv.DetectNow() // event write now sleeping in chaos latency
	start := time.Now()
	stop() // fails the test itself if Serve takes >10 s
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("shutdown took %v with a 30ms drain timeout", elapsed)
	}
	if got := m.ConnsForceClosed.Load(); got < 1 {
		t.Errorf("connections_force_closed_total = %d, want >= 1", got)
	}
}

// TestIdleDisconnect: a client that goes silent past the idle timeout is
// disconnected and accounted; the timeout must not misfire while the
// client is actively streaming.
func TestIdleDisconnect(t *testing.T) {
	cfg := chaosServiceConfig()
	cfg.IdleTimeout = 60 * time.Millisecond
	srv, addr, stop := startHardenedServer(t, cfg, Config{})
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Active streaming at half the idle timeout: must stay connected.
	for i := int64(0); i < 5; i++ {
		if _, err := conn.Write(obsLine(t, 2, 1, 1000*(i+1), -55)); err != nil {
			t.Fatalf("write %d: disconnected while active: %v", i, err)
		}
		time.Sleep(30 * time.Millisecond)
	}
	m := srv.Metrics()
	waitFor(t, "ingest", func() bool { return m.ObservationsIngested.Load() == 5 })
	if got := m.IdleDisconnects.Load(); got != 0 {
		t.Fatalf("idle disconnect fired during active streaming (%d)", got)
	}
	// Now go silent: the daemon must hang up and count it.
	waitFor(t, "idle disconnect", func() bool { return m.IdleDisconnects.Load() == 1 })
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	for {
		if _, err := conn.Read(buf); err != nil {
			break
		}
	}
	waitFor(t, "connection close accounting", func() bool {
		return m.ConnsClosed.Load() == m.ConnsOpened.Load()
	})
}

// TestOversizedLineSurvival: one abusive frame beyond MaxLineBytes is
// shed and counted, and the connection keeps working — the next valid
// line on the same socket still ingests.
func TestOversizedLineSurvival(t *testing.T) {
	cfg := chaosServiceConfig()
	cfg.MaxLineBytes = 256
	srv, addr, stop := startHardenedServer(t, cfg, Config{})
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	huge := strings.Repeat("x", 4096) + "\n"
	if _, err := conn.Write([]byte(huge)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(obsLine(t, 2, 1, 1000, -55)); err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics()
	waitFor(t, "oversized accounting", func() bool { return m.OversizedDropped.Load() == 1 })
	waitFor(t, "post-oversized ingest", func() bool { return m.ObservationsIngested.Load() == 1 })
	if got := m.ConnsClosed.Load(); got != 0 {
		t.Errorf("oversized frame cost the client its connection")
	}
}
