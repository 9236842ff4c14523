package wal

import (
	"testing"
	"time"

	"voiceprint/internal/vanet"
)

// benchAppend measures journaling throughput under one fsync policy.
func benchAppend(b *testing.B, policy SyncPolicy) {
	l, _, err := Open(Options{Dir: b.TempDir(), Policy: policy})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := l.Append(Record{Kind: KindObservation, Recv: vanet.NodeID(1 + i%8), Sender: vanet.NodeID(100 + i%512), T: time.Duration(i) * time.Millisecond, RSSI: -60 - float64(i%20)})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALAppend(b *testing.B) {
	b.Run("interval", func(b *testing.B) { benchAppend(b, SyncInterval) })
	b.Run("none", func(b *testing.B) { benchAppend(b, SyncNone) })
	b.Run("always", func(b *testing.B) { benchAppend(b, SyncAlways) })
}

// BenchmarkRecovery measures Open (scan + truncation check) plus a full
// replay over a journal of b.N records.
func BenchmarkRecovery(b *testing.B) {
	dir := b.TempDir()
	l, _, err := Open(Options{Dir: dir, Policy: SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	const records = 100_000
	for i := 0; i < records; i++ {
		err := l.Append(Record{Kind: KindObservation, Recv: vanet.NodeID(1 + i%8), Sender: vanet.NodeID(100 + i%512), T: time.Duration(i) * time.Millisecond, RSSI: -60 - float64(i%20)})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l2, rec, err := Open(Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		if err := rec.Replay(func(Record) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != records {
			b.Fatalf("replayed %d of %d records", n, records)
		}
		b.StopTimer()
		// Release the active segment fd; the empty segments successive
		// Opens leave behind hold no records, so every iteration replays
		// the same set.
		l2.Abort()
		b.StartTimer()
	}
	b.SetBytes(int64(records))
}
