package service

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"voiceprint/internal/vanet"
)

// sweepRecorder is a RoundCoordinator stub. It records the receiver set
// of every call and marks each outcome by adding every identity the
// round considered to its Suspects; a round with fewer than three
// identities never flags one itself, so a non-empty suspect list on
// such a round can only come from the coordinator. When block is set,
// the first call that sees wantRecvs receivers closes entered and
// waits for block to close.
type sweepRecorder struct {
	wantRecvs int
	block     chan struct{}
	entered   chan struct{}

	mu         sync.Mutex
	calls      [][]vanet.NodeID
	active     int
	overlapped bool
	blocked    bool
}

func (c *sweepRecorder) Coordinate(outs []RoundOutcome) []RoundOutcome {
	recvs := make([]vanet.NodeID, len(outs))
	for i, out := range outs {
		recvs[i] = out.Recv
	}
	c.mu.Lock()
	c.calls = append(c.calls, recvs)
	c.active++
	if c.active > 1 {
		c.overlapped = true
	}
	wait := c.block != nil && !c.blocked && len(recvs) == c.wantRecvs
	if wait {
		c.blocked = true
	}
	c.mu.Unlock()
	if wait {
		close(c.entered)
		<-c.block
	}
	for _, out := range outs {
		if out.Result == nil {
			continue
		}
		for _, id := range out.Result.Considered {
			out.Result.Suspects[id] = true
		}
	}
	c.mu.Lock()
	c.active--
	c.mu.Unlock()
	return outs
}

// snapshot returns the calls recorded so far and whether two overlapped.
func (c *sweepRecorder) snapshot() ([][]vanet.NodeID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]vanet.NodeID(nil), c.calls...), c.overlapped
}

// twoReceiverFeed is 4 s of beacons from senders 11 and 12 at
// receivers 701 and 702: each receiver considers exactly two
// identities once 30 samples are in.
func twoReceiverFeed() []Observation {
	var obs []Observation
	for i := 0; i < 40; i++ {
		for _, recv := range []vanet.NodeID{701, 702} {
			for _, sender := range []vanet.NodeID{11, 12} {
				obs = append(obs, Observation{
					Recv: recv, Sender: sender, TMs: int64(i * 100),
					RSSI: -60 - float64((i+int(sender))%7),
				})
			}
		}
	}
	return obs
}

// TestServeTickRunsCoordinatedSweep: the period ticker runs the same
// coordinated sweep as DetectNow, so the events it broadcasts carry the
// coordinator's edits and one Coordinate call sees every receiver.
func TestServeTickRunsCoordinatedSweep(t *testing.T) {
	coord := &sweepRecorder{}
	srv, _, _ := startServer(t, Config{
		Network:     "tcp",
		Addr:        "127.0.0.1:0",
		Registry:    RegistryConfig{Monitor: testMonitorConfig()},
		Period:      10 * time.Millisecond,
		Coordinator: coord,
	})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	feed := twoReceiverFeed()
	lines := make([]string, len(feed))
	for i, o := range feed {
		lines[i] = fmt.Sprintf(`{"recv":%d,"sender":%d,"t_ms":%d,"rssi":%.3f}`, o.Recv, o.Sender, o.TMs, o.RSSI)
	}
	sendLines(t, conn, lines)

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	sc := bufio.NewScanner(conn)
	full := map[vanet.NodeID]bool{}
	for len(full) < 2 {
		if !sc.Scan() {
			t.Fatalf("event stream ended before both receivers had a full round: %v", sc.Err())
		}
		ev, err := DecodeEvent(sc.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if ev.Error != "" {
			t.Fatalf("receiver %d: round error %s", ev.Recv, ev.Error)
		}
		if len(ev.Suspects) != ev.Considered {
			t.Fatalf("ticked event not coordinated: receiver %d considered %d, suspects %v", ev.Recv, ev.Considered, ev.Suspects)
		}
		if ev.Considered == 2 {
			full[ev.Recv] = true
		}
	}
	calls, overlapped := coord.snapshot()
	if overlapped {
		t.Error("two Coordinate calls overlapped")
	}
	both := false
	for _, recvs := range calls {
		if idsEqual(recvs, []vanet.NodeID{701, 702}) {
			both = true
		}
	}
	if !both {
		t.Errorf("no Coordinate call saw both receivers; calls %v", calls)
	}
}

// TestServeTickSkipsWhileSweepRuns blocks the first ticked sweep inside
// the coordinator. Ticks landing meanwhile are skipped and counted per
// receiver, an external DetectNow waits for the blocked sweep, and
// Serve, cancelled with the sweep in flight, returns once it ends.
func TestServeTickSkipsWhileSweepRuns(t *testing.T) {
	coord := &sweepRecorder{wantRecvs: 2, block: make(chan struct{}), entered: make(chan struct{})}
	srv, err := NewServer(Config{
		Network:     "tcp",
		Addr:        "127.0.0.1:0",
		Registry:    RegistryConfig{Monitor: testMonitorConfig()},
		Period:      10 * time.Millisecond,
		Coordinator: coord,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range twoReceiverFeed() {
		if err := srv.Registry().Observe(o); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx) }()
	released := false
	release := func() {
		if !released {
			released = true
			close(coord.block)
		}
	}
	defer release()

	select {
	case <-coord.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no ticked sweep reached the coordinator")
	}
	m := srv.Metrics()
	rounds := m.RoundsRun.Load()
	start := m.RoundsCoalesced.Load()
	waitFor(t, "three skipped ticks", func() bool { return m.RoundsCoalesced.Load() >= start+3*2 })
	if n := m.RoundsCoalesced.Load(); n%2 != 0 {
		t.Errorf("rounds_coalesced_total = %d, want a multiple of the receiver count 2", n)
	}
	if n := m.RoundsRun.Load(); n != rounds {
		t.Errorf("rounds ran while a sweep was blocked: %d -> %d", rounds, n)
	}

	detected := make(chan []RoundOutcome, 1)
	go func() { detected <- srv.DetectNow() }()
	select {
	case <-detected:
		t.Fatal("DetectNow returned while the ticked sweep was blocked")
	case <-time.After(50 * time.Millisecond):
	}

	cancel()
	select {
	case <-served:
		t.Fatal("Serve returned with a sweep in flight")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after the sweep was released")
	}
	select {
	case outs := <-detected:
		if len(outs) != 2 {
			t.Errorf("DetectNow returned %d outcomes, want 2", len(outs))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("DetectNow did not return after the sweep was released")
	}
	if _, overlapped := coord.snapshot(); overlapped {
		t.Error("two Coordinate calls overlapped")
	}
}
