package wal

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/lda"
	"voiceprint/internal/obs"
	"voiceprint/internal/vanet"
)

func TestRecordRoundTrip(t *testing.T) {
	records := []Record{
		{Kind: KindObservation, Recv: 901, Sender: 102, T: 18400 * time.Millisecond, RSSI: -71.25},
		{Kind: KindObservation, Recv: 0, Sender: 0, T: 0, RSSI: 0},
		{Kind: KindObservation, Recv: math.MaxUint32, Sender: math.MaxUint32, T: 72 * time.Hour, RSSI: -120.5},
		{Kind: KindRound, Recv: 901, At: 20 * time.Second},
		{Kind: KindRound, Recv: 7, At: -1}, // live round marker
		{Kind: KindObservationPos, Recv: 901, Sender: 102, T: 18400 * time.Millisecond, RSSI: -71.25, X: 42.5, Y: -3.75},
		{Kind: KindObservationPos, Recv: 1, Sender: 2, T: time.Second, RSSI: -60, X: 0, Y: -250.25},
	}
	var buf []byte
	for _, r := range records {
		var err error
		buf, err = AppendRecord(buf, r)
		if err != nil {
			t.Fatal(err)
		}
	}
	off := 0
	for i, want := range records {
		got, n, err := DecodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Errorf("record %d = %+v, want %+v", i, got, want)
		}
		off += n
	}
	if off != len(buf) {
		t.Errorf("decoded %d of %d bytes", off, len(buf))
	}
}

func TestAppendRecordRejectsUnknownKind(t *testing.T) {
	if _, err := AppendRecord(nil, Record{Kind: 99}); !errors.Is(err, ErrBadRecord) {
		t.Errorf("err = %v, want ErrBadRecord", err)
	}
}

func TestDecodeRecordErrors(t *testing.T) {
	frame, err := AppendRecord(nil, Record{Kind: KindObservation, Recv: 1, Sender: 2, T: time.Second, RSSI: -70})
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		mutate func([]byte) []byte
		want   error
	}{
		"short header":  {func(b []byte) []byte { return b[:4] }, ErrShortFrame},
		"short payload": {func(b []byte) []byte { return b[:len(b)-3] }, ErrShortFrame},
		"zero length":   {func(b []byte) []byte { b[0], b[1], b[2], b[3] = 0, 0, 0, 0; return b }, ErrFrameSize},
		"huge length":   {func(b []byte) []byte { b[0], b[1], b[2], b[3] = 0xff, 0xff, 0xff, 0xff; return b }, ErrFrameSize},
		"flipped bit":   {func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }, ErrChecksum},
	} {
		b := tc.mutate(append([]byte(nil), frame...))
		if _, n, err := DecodeRecord(b); !errors.Is(err, tc.want) || n != 0 {
			t.Errorf("%s: (n=%d, err=%v), want (0, %v)", name, n, err, tc.want)
		}
	}
}

// appendN journals n observation records with distinct contents.
func appendN(t *testing.T, l *Log, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		err := l.Append(Record{Kind: KindObservation, Recv: vanet.NodeID(1 + i%3), Sender: vanet.NodeID(100 + i), T: time.Duration(i) * time.Millisecond, RSSI: -60 - float64(i%20)})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// replayAll collects every replayable record.
func replayAll(t *testing.T, rec *Recovery) []Record {
	t.Helper()
	var out []Record
	if err := rec.Replay(func(r Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendCloseReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Snapshot) != 0 || len(replayAll(t, rec)) != 0 {
		t.Fatal("fresh directory recovered state")
	}
	appendN(t, l, 0, 100)
	if err := l.AppendRound(1, 42*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Kind: KindRound, Recv: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("append after close: %v, want ErrClosed", err)
	}

	l2, rec2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := replayAll(t, rec2)
	if len(got) != 101 {
		t.Fatalf("replayed %d records, want 101", len(got))
	}
	if got[0] != (Record{Kind: KindObservation, Recv: 1, Sender: 100, T: 0, RSSI: -60}) {
		t.Errorf("first record = %+v", got[0])
	}
	if last := got[100]; last.Kind != KindRound || last.Recv != 1 || last.At != 42*time.Millisecond {
		t.Errorf("last record = %+v", last)
	}
	// New appends land in a fresh segment beyond anything recovered.
	if l2.Status().Segment <= rec2.segments[len(rec2.segments)-1].index {
		t.Errorf("active segment %d does not follow recovered segment %d", l2.Status().Segment, rec2.segments[len(rec2.segments)-1].index)
	}
}

func TestAbortKeepsWrittenRecords(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 50)
	l.Abort() // crash: no final fsync, fd closed
	if err := l.Append(Record{Kind: KindRound, Recv: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("append after abort: %v, want ErrClosed", err)
	}

	_, rec, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(replayAll(t, rec)); got != 50 {
		t.Errorf("replayed %d records after abort, want 50", got)
	}
}

// TestConcurrentAppendSyncClose races appends from several goroutines,
// tiny segments (a rotation every few records) and a 100 µs group-commit
// flusher whose fsyncs run outside the log mutex, against a Close or an
// Abort that lands while appends and fsyncs are still in flight. Every
// record whose Append returned nil must come back from recovery: a
// rotation, Close or Abort that closed the file under a running fsync,
// or an fsync that lost track of bytes written during it, would lose or
// tear them. Run it under -race.
func TestConcurrentAppendSyncClose(t *testing.T) {
	for _, abort := range []bool{false, true} {
		name := "close"
		if abort {
			name = "abort"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := Open(Options{Dir: dir, Interval: 100 * time.Microsecond, SegmentBytes: 512})
			if err != nil {
				t.Fatal(err)
			}
			const writers, perWriter = 4, 200
			var (
				wg      sync.WaitGroup
				mu      sync.Mutex
				written = make(map[vanet.NodeID]bool)
				started = make(chan struct{}, writers*perWriter)
			)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						id := vanet.NodeID(1000*w + i)
						err := l.Append(Record{Kind: KindObservation, Recv: 1, Sender: id, T: time.Duration(i) * time.Millisecond, RSSI: -70})
						started <- struct{}{}
						if errors.Is(err, ErrClosed) {
							return
						}
						if err != nil {
							t.Error(err)
							return
						}
						mu.Lock()
						written[id] = true
						mu.Unlock()
					}
				}(w)
			}
			// An explicit Sync loop beside the flusher: the flusher stops
			// before Close and Abort take the log, this one does not.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if err := l.Sync(); errors.Is(err, ErrClosed) {
						return
					} else if err != nil {
						t.Error(err)
						return
					}
				}
			}()
			// Let about half the appends through, then shut the log down
			// under the rest.
			for i := 0; i < writers*perWriter/2; i++ {
				<-started
			}
			if abort {
				l.Abort()
			} else if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l.mu.Lock()
			inFlight := l.syncing
			l.mu.Unlock()
			if inFlight {
				t.Error("an fsync was still running on the file after it was closed")
			}
			wg.Wait()

			l2, rec, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			recovered := make(map[vanet.NodeID]bool)
			for _, r := range replayAll(t, rec) {
				recovered[r.Sender] = true
			}
			for id := range written {
				if !recovered[id] {
					t.Errorf("record %d was appended but not recovered", id)
				}
			}
			if len(written) < writers*perWriter/2 {
				t.Fatalf("only %d appends succeeded before shutdown", len(written))
			}
		})
	}
}

// newestSegment returns the lexically newest segment path in dir.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segments in %s (err %v)", dir, err)
	}
	return matches[len(matches)-1]
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	var stats struct {
		truncations, replayed obs.Counter
	}
	opts := Options{Dir: dir, Stats: Stats{Truncations: &stats.truncations, ReplayedRecords: &stats.replayed}}
	l, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 30)
	l.Abort()

	// Torn write: garbage after the last full frame.
	path := newestSegment(t, dir)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, 37)
	for i := range garbage {
		garbage[i] = 0xff
	}
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	l2, rec, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := len(replayAll(t, rec)); got != 30 {
		t.Errorf("replayed %d records, want 30", got)
	}
	if stats.truncations.Load() == 0 {
		t.Error("truncation not counted")
	}
	if stats.replayed.Load() != 30 {
		t.Errorf("replayed counter = %d, want 30", stats.replayed.Load())
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size()-int64(len(garbage)) {
		t.Errorf("segment %d bytes after recovery, want %d", after.Size(), before.Size()-int64(len(garbage)))
	}
}

func TestCorruptionMidHistoryDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation: ~30-byte frames, so 10 records span
	// several segments.
	l, _, err := Open(Options{Dir: dir, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 40)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %d (err %v)", len(segs), err)
	}

	// Flip one payload byte in the middle segment: everything from that
	// record on — including whole later segments — must be dropped.
	mid := segs[len(segs)/2]
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeader+frameHeader+2] ^= 0x10
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := replayAll(t, rec)
	if len(got) == 0 || len(got) >= 40 {
		t.Fatalf("replayed %d records, want a strict prefix", len(got))
	}
	// The prefix is contiguous from the start: record i carries T = i ms.
	for i, r := range got {
		if r.T != time.Duration(i)*time.Millisecond {
			t.Fatalf("record %d has T %v: replay is not a contiguous prefix", i, r.T)
		}
	}
	for _, s := range segs[len(segs)/2+1:] {
		if _, err := os.Stat(s); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("segment %s survived the corruption point", s)
		}
	}
}

// testStates builds a deterministic monitor fleet state.
func testStates(t *testing.T) []ReceiverState {
	t.Helper()
	mon, err := core.NewMonitor(core.MonitorConfig{
		Detector:      core.DefaultConfig(lda.Boundary{K: 0.000025, B: 0.0067}),
		ConfirmWindow: 3,
		ConfirmNeed:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		at := time.Duration(i) * 400 * time.Millisecond
		for _, id := range []vanet.NodeID{101, 102} {
			if err := mon.Observe(id, at, -60-float64(i%9)); err != nil {
				t.Fatal(err)
			}
		}
		if err := mon.Observe(1, at, -55-float64((i*3)%11)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mon.Detect(); err != nil {
		t.Fatal(err)
	}
	return []ReceiverState{{Recv: 901, State: mon.State()}}
}

func TestSnapshotCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 50) // several segments of pre-snapshot history
	states := testStates(t)
	info, err := l.Snapshot(func() []ReceiverState { return states })
	if err != nil {
		t.Fatal(err)
	}
	if info.Receivers != 1 || info.Bytes == 0 {
		t.Fatalf("info = %+v", info)
	}
	appendN(t, l, 50, 20) // post-snapshot tail
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Pre-snapshot segments are pruned.
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	for _, s := range segs {
		if idx, _ := parseIndexed(filepath.Base(s), segPrefix, segSuffix); idx < info.NextSegment {
			t.Errorf("segment %s survived compaction", s)
		}
	}

	l2, rec, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !reflect.DeepEqual(rec.Snapshot, states) {
		t.Error("recovered snapshot state differs from the captured one")
	}
	got := replayAll(t, rec)
	if len(got) != 20 {
		t.Fatalf("replayed %d records, want only the 20 post-snapshot ones", len(got))
	}
	if got[0].T != 50*time.Millisecond {
		t.Errorf("tail starts at T %v, want 50ms", got[0].T)
	}
}

func TestCorruptSnapshotFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	states := testStates(t)
	if _, err := l.Snapshot(func() []ReceiverState { return states }); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 10)
	info2, err := l.Snapshot(func() []ReceiverState { return states })
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 10, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The older snapshot was pruned by the newer one; corrupting the
	// newest must not lose the journal tail — but with no older snapshot
	// left, recovery starts empty and replays nothing before the torn
	// point. What must NOT happen is an Open error or a panic.
	data, err := os.ReadFile(info2.Path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(info2.Path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.SnapshotPath != "" {
		t.Errorf("loaded corrupt snapshot %s", rec.SnapshotPath)
	}
	// Replay must not error; the tail after the corrupt snapshot's
	// NextSegment is still contiguous from the oldest surviving segment.
	replayAll(t, rec)
}

func TestSnapshotBarrierExcludesConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 5)

	captured := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		// An op holding the barrier blocks the snapshot until End.
		l.Begin()
		defer l.End()
		if err := l.Append(Record{Kind: KindObservation, Recv: 1, Sender: 2, T: time.Hour, RSSI: -70}); err != nil {
			t.Error(err)
		}
		select {
		case <-captured:
			t.Error("snapshot captured while an op held the barrier")
		case <-time.After(50 * time.Millisecond):
		}
	}()
	time.Sleep(10 * time.Millisecond)
	if _, err := l.Snapshot(func() []ReceiverState {
		close(captured)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	<-done
}

func TestSyncPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			var fsyncs obs.Counter
			l, _, err := Open(Options{Dir: dir, Policy: policy, Interval: time.Millisecond, Stats: Stats{Fsyncs: &fsyncs}})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 0, 20)
			if policy == SyncInterval {
				time.Sleep(20 * time.Millisecond) // let the group-commit flusher run
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			switch policy {
			case SyncAlways:
				if fsyncs.Load() < 20 {
					t.Errorf("fsyncs = %d, want >= 20", fsyncs.Load())
				}
			case SyncInterval:
				if fsyncs.Load() == 0 {
					t.Error("group-commit flusher never synced")
				}
			case SyncNone:
				// Close still does a final sync; appends alone must not.
			}
			_, rec, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if got := len(replayAll(t, rec)); got != 20 {
				t.Errorf("replayed %d records, want 20", got)
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"always": SyncAlways, "interval": SyncInterval, "": SyncInterval, "none": SyncNone} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = (%v, %v), want %v", s, got, err, want)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted garbage")
	}
}

func TestStatusTracksSnapshotLag(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 10)
	if st := l.Status(); st.SinceSnapshotBytes == 0 || st.LastSnapshotSegment != 0 {
		t.Errorf("pre-snapshot status = %+v", st)
	}
	if _, err := l.Snapshot(func() []ReceiverState { return nil }); err != nil {
		t.Fatal(err)
	}
	st := l.Status()
	if st.SinceSnapshotBytes != 0 || st.LastSnapshotSegment == 0 || st.LastSnapshotAt.IsZero() {
		t.Errorf("post-snapshot status = %+v", st)
	}
}

// fusedTestStates builds a monitor state carrying claimed-position
// evidence, exercising the version-2 claims block.
func fusedTestStates(t *testing.T) []ReceiverState {
	t.Helper()
	mon, err := core.NewMonitor(core.MonitorConfig{
		Detector:      core.DefaultConfig(lda.Boundary{K: 0.000025, B: 0.0067}),
		ConfirmWindow: 3,
		ConfirmNeed:   2,
		Fusion:        core.FusionOptions{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		at := time.Duration(i) * 400 * time.Millisecond
		for _, id := range []vanet.NodeID{101, 102} {
			if err := mon.ObserveWithClaim(id, at, -60-float64(i%9), 30+float64(i), -5); err != nil {
				t.Fatal(err)
			}
		}
		if err := mon.Observe(1, at, -55-float64((i*3)%11)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mon.Detect(); err != nil {
		t.Fatal(err)
	}
	return []ReceiverState{{Recv: 901, State: mon.State()}}
}

// TestSnapshotClaimsRoundTrip: a fused monitor's claimed-position
// evidence must survive encode → decode → RestoreState bit-exactly.
func TestSnapshotClaimsRoundTrip(t *testing.T) {
	states := fusedTestStates(t)
	hasClaims := false
	for _, ident := range states[0].State.Identities {
		if len(ident.Claims) > 0 {
			hasClaims = true
		}
	}
	if !hasClaims {
		t.Fatal("test state carries no claims")
	}
	decoded, err := decodeStates(encodeStates(nil, states))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, states) {
		t.Error("claims did not survive the snapshot round trip")
	}
	mon, err := core.NewMonitor(core.MonitorConfig{
		Detector:      core.DefaultConfig(lda.Boundary{K: 0.000025, B: 0.0067}),
		ConfirmWindow: 3,
		ConfirmNeed:   2,
		Fusion:        core.FusionOptions{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.RestoreState(decoded[0].State); err != nil {
		t.Fatal(err)
	}
	if got := mon.State(); !reflect.DeepEqual(got, states[0].State) {
		t.Error("restored monitor state differs from the snapshotted one")
	}
}

// encodeStatesV1 reproduces the version-1 (pre-fusion) payload layout:
// identical to version 2 minus the per-identity claims block.
func encodeStatesV1(states []ReceiverState) []byte {
	dst := []byte{1}
	dst = binary.AppendUvarint(dst, uint64(len(states)))
	for _, rs := range states {
		dst = binary.AppendUvarint(dst, uint64(rs.Recv))
		st := rs.State
		dst = binary.AppendVarint(dst, int64(st.Now))
		dst = binary.AppendUvarint(dst, st.Evicted)
		dst = binary.AppendUvarint(dst, uint64(len(st.Identities)))
		for _, ident := range st.Identities {
			dst = binary.AppendUvarint(dst, uint64(ident.ID))
			dst = binary.AppendVarint(dst, int64(ident.LastObs))
			dst = binary.AppendUvarint(dst, uint64(len(ident.Samples)))
			for _, smp := range ident.Samples {
				dst = binary.AppendVarint(dst, int64(smp.T))
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(smp.RSSI))
			}
		}
		dst = binary.AppendUvarint(dst, uint64(len(st.Confirm)))
		for _, c := range st.Confirm {
			dst = binary.AppendUvarint(dst, uint64(c.ID))
			dst = binary.AppendUvarint(dst, uint64(len(c.Flags)))
			for _, f := range c.Flags {
				b := byte(0)
				if f {
					b = 1
				}
				dst = append(dst, b)
			}
		}
		dst = binary.AppendUvarint(dst, uint64(len(st.KnownSybil)))
		for _, id := range st.KnownSybil {
			dst = binary.AppendUvarint(dst, uint64(id))
		}
	}
	return dst
}

// TestSnapshotV1Compat: a pre-fusion snapshot (version 1, no claims
// block) must decode on a fusion-era daemon with empty claims.
func TestSnapshotV1Compat(t *testing.T) {
	states := testStates(t)
	decoded, err := decodeStates(encodeStatesV1(states))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, states) {
		t.Errorf("v1 payload decoded differently:\n got %+v\nwant %+v", decoded, states)
	}
	for _, ident := range decoded[0].State.Identities {
		if len(ident.Claims) > 0 {
			t.Errorf("v1 decode invented claims for %d", ident.ID)
		}
	}
	if _, err := decodeStates([]byte{3, 0}); err == nil {
		t.Error("unknown snapshot version accepted")
	}
}

// TestAppendObservationPosReplay: positioned observations journal as
// kind-3 records and replay with their coordinates intact, whether
// appended one at a time or as a run in one write.
func TestAppendObservationPosReplay(t *testing.T) {
	dir := t.TempDir()
	var appends obs.Counter
	l, _, err := Open(Options{Dir: dir, Stats: Stats{Appends: &appends}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Kind: KindObservation, Recv: 901, Sender: 102, T: time.Second, RSSI: -71}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Kind: KindObservationPos, Recv: 901, Sender: 103, T: 2 * time.Second, RSSI: -68.5, X: 42.5, Y: -3.75}); err != nil {
		t.Fatal(err)
	}
	run := []Record{
		{Kind: KindObservationPos, Recv: 902, Sender: 104, T: 3 * time.Second, RSSI: -80, X: 1, Y: 2},
		{Kind: KindObservation, Recv: 902, Sender: 105, T: 3 * time.Second, RSSI: -81},
	}
	if err := l.Append(run...); err != nil {
		t.Fatal(err)
	}
	if got := appends.Load(); got != 4 {
		t.Errorf("appends counter = %d, want 4 (one per record)", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := replayAll(t, rec)
	want := []Record{
		{Kind: KindObservation, Recv: 901, Sender: 102, T: time.Second, RSSI: -71},
		{Kind: KindObservationPos, Recv: 901, Sender: 103, T: 2 * time.Second, RSSI: -68.5, X: 42.5, Y: -3.75},
		run[0], run[1],
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replayed %+v, want %+v", got, want)
	}
}

// allocRecords is one record of each kind, with ids past the runtime's
// small-integer cache so any boxing of them would allocate.
var allocRecords = []Record{
	{Kind: KindObservation, Recv: 901, Sender: 1002, T: 1500 * time.Millisecond, RSSI: -71.25},
	{Kind: KindRound, Recv: 901, At: 2 * time.Second},
	{Kind: KindObservationPos, Recv: 901, Sender: 1003, T: 2500 * time.Millisecond, RSSI: -68.5, X: 42.5, Y: -3.75},
}

// TestAppendRecordAllocs pins the frame encoder at zero allocations for
// every record kind when the destination buffer is reused.
func TestAppendRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	buf := make([]byte, 0, 256)
	for _, r := range allocRecords {
		got := testing.AllocsPerRun(200, func() {
			var err error
			if buf, err = AppendRecord(buf[:0], r); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("AppendRecord(kind %d): %v allocs, want 0", r.Kind, got)
		}
	}
}

// TestEncodeStatesAllocs pins the snapshot encoder at zero allocations
// into a buffer already sized for the payload.
func TestEncodeStatesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	states := fusedTestStates(t)
	buf := make([]byte, 0, len(encodeStates(nil, states)))
	if got := testing.AllocsPerRun(50, func() { buf = encodeStates(buf[:0], states) }); got != 0 {
		t.Errorf("encodeStates: %v allocs, want 0", got)
	}
}

// TestLogAppendAllocs pins the journal write path at zero allocations
// for a batch once the log's frame buffer has grown to fit it.
func TestLogAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	l, _, err := Open(Options{Dir: t.TempDir(), Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(allocRecords...); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if err := l.Append(allocRecords...); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("Log.Append of %d records: %v allocs, want 0", len(allocRecords), got)
	}
}
