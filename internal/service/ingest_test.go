package service

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestIngestAdmission pins the per-connection admission rule
// deterministically: the bound counts lines admitted but not yet
// applied, a batch that does not fit is admitted up to the bound and
// its excess shed and counted once, admission never waits for the
// applier, and applied lines free room for later ones.
func TestIngestAdmission(t *testing.T) {
	m := &Metrics{}
	q := newIngestQueue(6, &m.BackpressureDropped)
	var next int64
	batch := func(n int) *obsBatch {
		b := getBatch()
		for i := 0; i < n; i++ {
			b.obs = append(b.obs, Observation{TMs: next})
			next++
		}
		return b
	}
	// No applier runs: a blocking admit would hang the test.
	for _, step := range []struct{ lines, shed int }{{3, 0}, {5, 2}, {2, 4}} {
		q.admit(batch(step.lines))
		if got := m.BackpressureDropped.Load(); got != uint64(step.shed) {
			t.Fatalf("after a %d-line batch: BackpressureDropped = %d, want %d", step.lines, got, step.shed)
		}
	}
	batches, ok := q.take(nil)
	if !ok {
		t.Fatal("take reported a closed queue")
	}
	var got []int64
	for _, b := range batches {
		for _, o := range b.obs {
			got = append(got, o.TMs)
		}
	}
	if want := []int64{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("admitted lines %v, want %v (the leading lines of each batch, in order)", got, want)
	}
	// Taken is not applied: the bound still holds every line.
	q.admit(batch(1))
	if got := m.BackpressureDropped.Load(); got != 5 {
		t.Fatalf("admitted past the bound while the applier held 6 lines: BackpressureDropped = %d, want 5", got)
	}
	q.applied(4)
	q.admit(batch(3))
	if got := m.BackpressureDropped.Load(); got != 5 {
		t.Fatalf("freed room shed lines: BackpressureDropped = %d, want 5", got)
	}
	q.close()
	batches, ok = q.take(batches[:0])
	if !ok || len(batches) != 1 || len(batches[0].obs) != 3 || batches[0].obs[0].TMs != 11 {
		t.Fatalf("after close: take = %v, %v; want the 3 lines admitted into freed room", batches, ok)
	}
	if _, ok := q.take(batches[:0]); ok {
		t.Fatal("a closed, drained queue still reports batches")
	}
}

// TestIngestQueueConcurrent runs the reader and applier sides of one
// queue at once (run it with -race): every line is either applied or
// shed, never both, the applied lines keep their arrival order, and a
// batch counts against the bound until its apply returns.
func TestIngestQueueConcurrent(t *testing.T) {
	m := &Metrics{}
	q := newIngestQueue(64, &m.BackpressureDropped)
	const batches = 2000
	var sent int64
	go func() {
		defer q.close()
		for i := 0; i < batches; i++ {
			b := getBatch()
			for n := 1 + i%40; n > 0; n-- {
				b.obs = append(b.obs, Observation{TMs: sent})
				sent++
			}
			q.admit(b)
		}
	}()
	var applied []int64
	q.drain(func(obs []Observation) {
		q.mu.Lock()
		held := q.lines
		q.mu.Unlock()
		if held < len(obs) {
			t.Errorf("applying %d lines while the bound counts %d in flight", len(obs), held)
		}
		for _, o := range obs {
			applied = append(applied, o.TMs)
		}
	})
	if got := int64(len(applied)) + int64(m.BackpressureDropped.Load()); got != sent {
		t.Errorf("applied %d + shed %d = %d lines, sent %d", len(applied), m.BackpressureDropped.Load(), got, sent)
	}
	for i := 1; i < len(applied); i++ {
		if applied[i] <= applied[i-1] {
			t.Fatalf("applied line %d after line %d", applied[i], applied[i-1])
		}
	}
}

// ingestBenchLines is the fixed replay of BenchmarkServerIngest: 51,200
// schema-1 lines from 8 receivers hearing 32 senders each, beaconing
// every 100 ms, in time order.
func ingestBenchLines() (data []byte, lines int) {
	var buf bytes.Buffer
	for step := 0; step < 200; step++ {
		for recv := 1; recv <= 8; recv++ {
			for sender := 0; sender < 32; sender++ {
				fmt.Fprintf(&buf, `{"recv":%d,"sender":%d,"t_ms":%d,"rssi":%.2f,"schema":1,"pos":{"x":%.1f,"y":%.1f}}`+"\n",
					recv, 100+sender, step*100, -60-float64((step+sender)%23)/2, float64(sender*7%90), float64(step%11)-5)
				lines++
			}
		}
	}
	return buf.Bytes(), lines
}

// BenchmarkServerIngest replays ingestBenchLines over one loopback
// connection into a fresh server per iteration and times the write
// until every line is applied, with the daemon in memory and with a
// WAL (interval fsync). It reports the cost per line; the ingest
// buffer holds the whole replay, so nothing is shed.
func BenchmarkServerIngest(b *testing.B) {
	data, lines := ingestBenchLines()
	for _, journaled := range []bool{false, true} {
		name := "plain"
		if journaled {
			name = "journaled"
		}
		b.Run(name, func(b *testing.B) {
			var mallocs uint64
			var ms runtime.MemStats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := Config{
					Network:      "tcp",
					Addr:         "127.0.0.1:0",
					Registry:     RegistryConfig{Monitor: testMonitorConfig()},
					Period:       time.Hour,
					IngestBuffer: lines,
				}
				if journaled {
					cfg.WAL = &WALConfig{Dir: b.TempDir(), SnapshotInterval: -1}
				}
				srv, err := NewServer(cfg)
				if err != nil {
					b.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan error, 1)
				go func() { done <- srv.Serve(ctx) }()
				conn, err := net.Dial("tcp", srv.Addr().String())
				if err != nil {
					b.Fatal(err)
				}
				m := srv.Metrics()
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				b.StartTimer()
				if _, err := conn.Write(data); err != nil {
					b.Fatal(err)
				}
				for m.ObservationsIngested.Load() < uint64(lines) {
					time.Sleep(100 * time.Microsecond)
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - before
				if got := m.BackpressureDropped.Load() + m.MalformedDropped.Load() + m.StaleDropped.Load(); got != 0 {
					b.Fatalf("%d lines dropped", got)
				}
				conn.Close()
				cancel()
				if err := <-done; err != nil {
					b.Fatal(err)
				}
			}
			n := float64(b.N) * float64(lines)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/line")
			b.ReportMetric(float64(mallocs)/n, "allocs/line")
		})
	}
}

// TestBatchDecodeAllocs pins the reader's decode into a batch at no
// allocation per line, schema-1 lines included: the claimed position
// goes into the batch's own storage rather than a new Position.
func TestBatchDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	b := getBatch()
	defer putBatch(b)
	for _, line := range canonicalObservationLines[:2] {
		line := []byte(line)
		got := testing.AllocsPerRun(200, func() {
			b.obs = b.obs[:0]
			if err := b.decode(line); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("obsBatch.decode(%s): %v allocs, want 0", line, got)
		}
	}
	if o := b.obs[0]; o.Pos != &b.pos[0] || *o.Pos != (Position{X: 42.5, Y: -3.75}) {
		t.Fatalf("schema-1 line decoded to Pos %p %v, want %p {42.5 -3.75}", o.Pos, o.Pos, &b.pos[0])
	}
}

// TestIngestMergeCopiesPositions admits a batch of positioned lines
// behind one the applier has not taken, so it is merged and recycled,
// then reuses the recycled batch's storage: the merged lines must keep
// their own claimed positions.
func TestIngestMergeCopiesPositions(t *testing.T) {
	m := &Metrics{}
	q := newIngestQueue(16, &m.BackpressureDropped)
	line := func(sender int, x float64) []byte {
		return fmt.Appendf(nil, `{"recv":1,"sender":%d,"t_ms":%d,"rssi":-70,"schema":1,"pos":{"x":%g,"y":1}}`, sender, sender, x)
	}
	first, second := getBatch(), getBatch()
	for i := 0; i < 2; i++ {
		if err := first.decode(line(i, float64(i))); err != nil {
			t.Fatal(err)
		}
		if err := second.decode(line(10+i, float64(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	q.admit(first)
	q.admit(second) // merged into first and recycled
	for i := range second.pos {
		second.pos[i] = Position{X: -1, Y: -1}
	}
	batches, ok := q.take(nil)
	if !ok || len(batches) != 1 || len(batches[0].obs) != 4 {
		t.Fatalf("take = %d batches, %v; want one merged batch of 4 lines", len(batches), ok)
	}
	for _, o := range batches[0].obs {
		if want := (Position{X: float64(o.Sender), Y: 1}); o.Pos == nil || *o.Pos != want {
			t.Errorf("sender %d: Pos %v, want %v", o.Sender, o.Pos, want)
		}
	}
}
