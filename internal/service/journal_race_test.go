package service

import (
	"sync"
	"testing"

	"voiceprint/internal/wal"
)

// TestJournalInstallRace pins the atomic journal install: SetJournal
// runs at boot, but ingest listeners and scheduled rounds can already
// be live by then. With a plain pointer field the install raced every
// Observe and every round's journal read — this test makes the race
// detector prove the atomic.Pointer holds both install sites.
func TestJournalInstallRace(t *testing.T) {
	metrics := &Metrics{}
	reg, err := NewRegistry(RegistryConfig{Monitor: testMonitorConfig()}, metrics)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewScheduler(reg, metrics, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := wal.Open(wal.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 200; i++ {
			_ = reg.Observe(Observation{Recv: 1, Sender: 2, TMs: int64(i * 100), RSSI: -60})
		}
	}()
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 20; i++ {
			sched.DetectAll(-1)
		}
	}()
	close(start)
	reg.SetJournal(l)
	sched.SetJournal(l)
	wg.Wait()
}
