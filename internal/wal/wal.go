package wal

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"voiceprint/internal/obs"
	"voiceprint/internal/vanet"
)

// SyncPolicy selects when appended records reach stable storage.
type SyncPolicy uint8

const (
	// SyncInterval — the default — groups commits: a background flusher
	// fsyncs the active segment once per Options.Interval, so one fsync
	// amortizes over every append in the window. Bounded loss on power
	// failure (at most one interval), negligible loss on process crash
	// (appends hit the page cache synchronously).
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs after every append: zero loss on power failure,
	// one fsync per record.
	SyncAlways
	// SyncNone never fsyncs; the OS page cache is the only durability.
	SyncNone
)

// ParseSyncPolicy parses the -wal-fsync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "interval", "":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or none)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return "interval"
	}
}

// Stats points at caller-owned instruments the log updates as it works;
// any nil field is skipped, so the zero Stats disables instrumentation.
// The service layer wires these to its wal_*-family metrics.
type Stats struct {
	Appends, AppendErrors *obs.Counter
	Fsyncs                *obs.Counter
	FsyncNs               *obs.Histogram
	SegmentBytes          *obs.Gauge
	Snapshots             *obs.Counter
	SnapshotErrors        *obs.Counter
	SnapshotNs            *obs.Histogram
	SnapshotBytes         *obs.Gauge
	ReplayedRecords       *obs.Counter
	Truncations           *obs.Counter
}

func cinc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

func gset(g *obs.Gauge, v int64) {
	if g != nil {
		g.Set(v)
	}
}

func hobs(h *obs.Histogram, ns int64) {
	if h != nil {
		h.Observe(ns)
	}
}

// Options configures Open.
type Options struct {
	// Dir is the log directory (created if absent). Required.
	Dir string
	// Policy is the fsync policy; the zero value is SyncInterval.
	Policy SyncPolicy
	// Interval is the SyncInterval group-commit period; zero means 5 ms.
	Interval time.Duration
	// SegmentBytes rotates the active segment once it grows past this
	// size; zero means 64 MiB.
	SegmentBytes int64
	// Stats receives instrumentation updates; the zero value disables.
	Stats Stats
	// Logger, when non-nil, receives recovery and truncation warnings.
	Logger *slog.Logger
}

// ErrClosed is returned by operations on a closed or aborted log.
var ErrClosed = errors.New("wal: log closed")

const (
	segMagic   = "VPWALSEG"
	segHeader  = 16 // magic + uint64 LE segment index
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

// Log is the append side of the WAL. One Log owns its directory; it is
// safe for concurrent use.
type Log struct {
	opts Options

	// barrier serializes journal-and-apply steps (shared side, via
	// Begin/End) against snapshot capture (exclusive side): a snapshot
	// rotates the active segment and deep-copies the monitor fleet
	// while no step is half-journaled, so every step lands in exactly
	// one of {snapshot, replayable tail} — never both, never neither.
	barrier sync.RWMutex

	mu      sync.Mutex
	f       *os.File // voiceprintvet:guardedby mu
	seg     uint64   // voiceprintvet:guardedby mu — active segment index
	segSize int64    // voiceprintvet:guardedby mu
	buf     []byte   // voiceprintvet:guardedby mu — append encode scratch, reused
	dirty   bool     // voiceprintvet:guardedby mu — bytes written since the last fsync
	syncing bool     // voiceprintvet:guardedby mu — Sync is fsyncing f with mu released
	closed  bool     // voiceprintvet:guardedby mu
	aborted bool     // voiceprintvet:guardedby mu

	lastSnapSeg uint64    // voiceprintvet:guardedby mu — NextSegment of the newest snapshot; 0 = none
	lastSnapAt  time.Time // voiceprintvet:guardedby mu — zero = none
	sinceSnap   int64     // voiceprintvet:guardedby mu — bytes appended since the last snapshot

	// synced is signalled, with L = &mu, when an fsync that ran outside
	// mu finishes (see Sync and idleLocked).
	synced sync.Cond

	flushStop chan struct{}
	flushDone chan struct{}
	flushOnce sync.Once
}

// Open opens (creating if needed) the log in opts.Dir, performs the
// recovery scan — choose the newest loadable snapshot, validate the
// segment chain after it, truncate a torn tail in place, drop segments
// beyond a corruption point or index gap — and starts a fresh active
// segment. The returned Recovery carries the snapshot state and the
// replayable record tail; new appends never share a segment with
// recovered records.
func Open(opts Options) (*Log, *Recovery, error) {
	if opts.Dir == "" {
		return nil, nil, errors.New("wal: Options.Dir is required")
	}
	if opts.Interval <= 0 {
		opts.Interval = 5 * time.Millisecond
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{opts: opts}
	l.synced.L = &l.mu
	rec, err := l.recover()
	if err != nil {
		return nil, nil, err
	}
	if err := l.createSegment(l.seg); err != nil {
		return nil, nil, err
	}
	if opts.Policy == SyncInterval {
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, rec, nil
}

// recover scans the directory and prepares the Recovery. On return,
// l.seg holds the index the fresh active segment must use and the
// snapshot bookkeeping reflects the newest loaded snapshot. Only Open
// calls it, on the not-yet-published log — the holds contract records
// that its field writes require exclusive access.
//
// voiceprintvet:holds mu
func (l *Log) recover() (*Recovery, error) {
	entries, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segIdx, snapIdx []uint64
	for _, e := range entries {
		if idx, ok := parseIndexed(e.Name(), segPrefix, segSuffix); ok {
			segIdx = append(segIdx, idx)
		}
		if idx, ok := parseIndexed(e.Name(), snapPrefix, snapSuffix); ok {
			snapIdx = append(snapIdx, idx)
		}
	}
	sort.Slice(segIdx, func(i, j int) bool { return segIdx[i] < segIdx[j] })
	sort.Slice(snapIdx, func(i, j int) bool { return snapIdx[i] > snapIdx[j] }) // newest first

	rec := &Recovery{dir: l.opts.Dir, stats: l.opts.Stats}
	var maxSeen uint64
	start := uint64(0) // first segment index to replay
	if len(segIdx) > 0 {
		start = segIdx[0]
	}
	for _, idx := range snapIdx {
		path := l.snapPath(idx)
		snap, err := loadSnapshot(path)
		if err != nil {
			l.warn("wal: skipping unreadable snapshot", "path", path, "err", err)
			continue
		}
		rec.Snapshot = snap.Receivers
		rec.SnapshotPath = path
		start = snap.NextSegment
		l.lastSnapSeg = snap.NextSegment
		if fi, err := os.Stat(path); err == nil {
			l.lastSnapAt = fi.ModTime()
		}
		if snap.NextSegment > 0 {
			maxSeen = snap.NextSegment - 1
		}
		break
	}

	// Walk the segment chain from start: contiguous valid segments are
	// replayable; a torn tail is truncated in place; anything past a
	// corruption point or an index gap cannot be applied consistently
	// and is dropped. Segments superseded by the snapshot are leftovers
	// of a crash mid-prune and are removed.
	expect := start
	broken := false
	for _, idx := range segIdx {
		if idx > maxSeen {
			maxSeen = idx
		}
		path := l.segPath(idx)
		if idx < start {
			os.Remove(path)
			continue
		}
		if broken || idx != expect {
			l.warn("wal: dropping segment beyond a gap or corruption point", "path", path)
			cinc(l.opts.Stats.Truncations)
			os.Remove(path)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		valid, torn := scanSegment(data, idx)
		if torn {
			l.warn("wal: truncating torn segment tail", "path", path, "valid_bytes", valid, "torn_bytes", int64(len(data))-valid)
			cinc(l.opts.Stats.Truncations)
			if err := os.Truncate(path, valid); err != nil {
				return nil, fmt.Errorf("wal: truncate %s: %w", path, err)
			}
			broken = true
		}
		if valid > segHeader {
			rec.segments = append(rec.segments, segmentRef{index: idx, validLen: valid})
		}
		expect = idx + 1
	}
	l.seg = maxSeen + 1
	if l.seg == 0 { // no snapshots, no segments
		l.seg = 1
	}
	return rec, nil
}

// scanSegment returns the length of the segment's valid prefix and
// whether bytes beyond it must be truncated. A missing or wrong header
// invalidates the whole file (valid 0); an empty file is a benign
// creation-crash artifact.
func scanSegment(data []byte, idx uint64) (valid int64, torn bool) {
	if len(data) == 0 {
		return 0, false
	}
	if len(data) < segHeader || string(data[:8]) != segMagic || leUint64(data[8:16]) != idx {
		return 0, true
	}
	off := segHeader
	for off < len(data) {
		_, n, err := DecodeRecord(data[off:])
		if err != nil {
			return int64(off), true
		}
		off += n
	}
	return int64(off), false
}

func leUint64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func (l *Log) segPath(idx uint64) string {
	return filepath.Join(l.opts.Dir, fmt.Sprintf("%s%020d%s", segPrefix, idx, segSuffix))
}

func (l *Log) snapPath(idx uint64) string {
	return filepath.Join(l.opts.Dir, fmt.Sprintf("%s%020d%s", snapPrefix, idx, snapSuffix))
}

// parseIndexed extracts the decimal index from "<prefix>NNN<suffix>".
func parseIndexed(name, prefix, suffix string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, suffix)
	if !ok {
		return 0, false
	}
	idx, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return idx, true
}

// createSegment opens a fresh active segment with the given index and
// writes its header. Callers hold l.mu (rotateLocked) or exclusive
// access to an unpublished log (Open).
//
// voiceprintvet:holds mu
func (l *Log) createSegment(idx uint64) error {
	f, err := os.OpenFile(l.segPath(idx), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	hdr := make([]byte, 0, segHeader)
	hdr = append(hdr, segMagic...)
	for i := 0; i < 8; i++ {
		hdr = append(hdr, byte(idx>>(8*i)))
	}
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.seg = idx
	l.segSize = segHeader
	l.dirty = true
	gset(l.opts.Stats.SegmentBytes, l.segSize)
	syncDir(l.opts.Dir)
	return nil
}

// syncDir makes directory-entry changes (segment creation, snapshot
// rename) durable; errors are ignored — not every filesystem supports
// it, and the data-file fsync is the load-bearing one.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Begin acquires the snapshot barrier shared: hold it across one
// journal-then-apply (or run-then-journal) step so a concurrent
// snapshot can never capture half of it. End releases.
//
//voiceprintvet:ignore lockdiscipline Begin/End is a deliberate barrier API: the shared lock is handed to the caller and released by End
func (l *Log) Begin() { l.barrier.RLock() }

// End releases the barrier taken by Begin.
func (l *Log) End() { l.barrier.RUnlock() }

// AppendRound journals one detection-round boundary (at < 0 = live).
func (l *Log) AppendRound(recv vanet.NodeID, at time.Duration) error {
	return l.Append(Record{Kind: KindRound, Recv: recv, At: at})
}

// Append journals records in one write: frame each, write them to the
// active segment (rotating first if it is full), and fsync per the
// policy. Errors are counted on Stats.AppendErrors as well as returned;
// the caller decides whether an append failure blocks the in-memory
// apply (the service does not — availability over durability).
func (l *Log) Append(rs ...Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.segSize >= l.opts.SegmentBytes {
		l.idleLocked() // the rotation below closes the file
	}
	if err := l.usableLocked(); err != nil {
		cinc(l.opts.Stats.AppendErrors)
		return err
	}
	buf := l.buf[:0]
	for _, r := range rs {
		var err error
		if buf, err = AppendRecord(buf, r); err != nil {
			cinc(l.opts.Stats.AppendErrors)
			return err
		}
	}
	l.buf = buf
	if l.segSize >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			cinc(l.opts.Stats.AppendErrors)
			return err
		}
	}
	if _, err := l.f.Write(buf); err != nil {
		// A short write leaves a torn frame at the tail; recovery
		// truncates it, so the log stays consistent.
		cinc(l.opts.Stats.AppendErrors)
		return fmt.Errorf("wal: %w", err)
	}
	l.segSize += int64(len(buf))
	l.sinceSnap += int64(len(buf))
	l.dirty = true
	if c := l.opts.Stats.Appends; c != nil {
		c.Add(uint64(len(rs)))
	}
	gset(l.opts.Stats.SegmentBytes, l.segSize)
	if l.opts.Policy == SyncAlways {
		return l.syncLocked()
	}
	return nil
}

// usableLocked rejects appends on a closed or aborted log.
//
// voiceprintvet:holds mu
func (l *Log) usableLocked() error {
	if l.closed || l.aborted {
		return ErrClosed
	}
	return nil
}

// rotateLocked seals the active segment (final fsync unless SyncNone)
// and opens the next one. Callers hold l.mu and have waited for an
// in-flight Sync (idleLocked) since they last released it.
//
// voiceprintvet:holds mu
func (l *Log) rotateLocked() error {
	if l.opts.Policy != SyncNone {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return l.createSegment(l.seg + 1)
}

// syncLocked fsyncs the active segment if it has unsynced bytes.
//
// voiceprintvet:holds mu
func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.dirty = false
	cinc(l.opts.Stats.Fsyncs)
	hobs(l.opts.Stats.FsyncNs, time.Since(start).Nanoseconds())
	return nil
}

// Sync flushes the active segment to stable storage. The fsync runs with
// mu released, so Append is not stalled behind a slow disk while the
// group-commit flusher syncs: under mu Sync takes the file, clears dirty
// and marks a sync in flight; a failed fsync sets dirty again. Bytes
// appended while the fsync runs set dirty and wait for the next Sync.
// Rotation, Close and Abort wait for the in-flight fsync (idleLocked)
// before they close the file, and so does a second Sync, which then
// flushes what the first may have missed.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.idleLocked()
	if err := l.usableLocked(); err != nil {
		return err
	}
	if !l.dirty {
		return nil
	}
	f := l.f
	l.dirty = false
	l.syncing = true
	l.mu.Unlock()
	start := time.Now()
	err := f.Sync()
	elapsed := time.Since(start)
	l.mu.Lock()
	l.syncing = false
	l.synced.Broadcast()
	if err != nil {
		l.dirty = true
		return fmt.Errorf("wal: %w", err)
	}
	cinc(l.opts.Stats.Fsyncs)
	hobs(l.opts.Stats.FsyncNs, elapsed.Nanoseconds())
	return nil
}

// idleLocked waits until no Sync is fsyncing outside mu, so the caller
// may close or replace the file. Waiting releases mu, so callers check
// the log's state after it returns.
//
// voiceprintvet:holds mu
func (l *Log) idleLocked() {
	for l.syncing {
		l.synced.Wait()
	}
}

// flushLoop is the SyncInterval group-commit flusher.
func (l *Log) flushLoop() {
	defer close(l.flushDone)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := l.Sync(); err != nil && !errors.Is(err, ErrClosed) {
				l.warn("wal: group-commit fsync failed", "err", err)
			}
		case <-l.flushStop:
			return
		}
	}
}

// Close flushes and closes the log. Further appends return ErrClosed.
func (l *Log) Close() error {
	l.stopFlusher()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.idleLocked()
	if l.closed || l.aborted {
		return ErrClosed
	}
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.closed = true
	return err
}

// Abort simulates a process crash for tests: the active segment's file
// descriptor is closed without a final fsync and the log becomes
// unusable, exactly as if the process died mid-append. State already
// written stays readable for recovery (a real kill would leave the
// same bytes in the page cache); nothing after the Abort reaches the
// log.
func (l *Log) Abort() {
	l.stopFlusher()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.idleLocked()
	if l.closed || l.aborted {
		return
	}
	l.aborted = true
	l.f.Close()
}

func (l *Log) stopFlusher() {
	if l.flushStop == nil {
		return
	}
	l.flushOnce.Do(func() {
		close(l.flushStop)
		<-l.flushDone
	})
}

// Status is a point-in-time view of the log for health reporting.
type Status struct {
	// Segment is the active segment index; SegmentBytes its size.
	Segment      uint64
	SegmentBytes int64
	// SinceSnapshotBytes is the journal growth since the last snapshot
	// (the snapshot lag: how much a restart right now would replay).
	SinceSnapshotBytes int64
	// LastSnapshotSegment is the newest snapshot's NextSegment (0 =
	// none); LastSnapshotAt its write time (zero = none).
	LastSnapshotSegment uint64
	LastSnapshotAt      time.Time
}

// Status reports the log's current durability posture.
func (l *Log) Status() Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Status{
		Segment:             l.seg,
		SegmentBytes:        l.segSize,
		SinceSnapshotBytes:  l.sinceSnap,
		LastSnapshotSegment: l.lastSnapSeg,
		LastSnapshotAt:      l.lastSnapAt,
	}
}

func (l *Log) warn(msg string, args ...any) {
	if l.opts.Logger != nil {
		l.opts.Logger.Warn(msg, args...)
	}
}
