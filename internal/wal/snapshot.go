package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"time"

	"voiceprint/internal/core"
	"voiceprint/internal/timeseries"
	"voiceprint/internal/vanet"
)

// ReceiverState pairs one receiver with a deep copy of its monitor's
// durable detection state.
type ReceiverState struct {
	Recv  vanet.NodeID
	State *core.MonitorState
}

// SnapshotInfo describes one written snapshot.
type SnapshotInfo struct {
	Path string `json:"path"`
	// NextSegment is the first segment index NOT covered by the
	// snapshot: recovery loads the snapshot, then replays from here.
	NextSegment uint64        `json:"next_segment"`
	Receivers   int           `json:"receivers"`
	Bytes       int64         `json:"bytes"`
	Elapsed     time.Duration `json:"elapsed_ns"`
}

// Snapshot file layout:
//
//	"VPWALSNP" | uint64 LE NextSegment | uint32 LE payload length |
//	uint32 LE CRC32C(payload) | payload
//
// The payload is version-tagged and varint-packed (see encodeStates).
// The file is written to a temp name, fsynced, then renamed into place,
// so a crash mid-write never shadows the previous snapshot.
const (
	snapMagic  = "VPWALSNP"
	snapHeader = 24
	// snapVersion tags the payload encoding; bump on layout changes.
	// Version 1 had no per-identity claim block; version 2 adds one
	// (fusion claimed-position evidence). decodeStates accepts both so a
	// fusion-enabled daemon restores pre-fusion snapshots unchanged.
	snapVersion = 2
)

// Snapshot rotates the active segment, captures the monitor fleet via
// capture under the exclusive snapshot barrier, and writes a compacted
// snapshot that supersedes every earlier segment and snapshot (which
// are pruned on success). Appends block only for the rotate-and-capture
// window; encoding and disk I/O happen after the barrier drops.
func (l *Log) Snapshot(capture func() []ReceiverState) (SnapshotInfo, error) {
	start := time.Now()
	l.barrier.Lock()
	l.mu.Lock()
	l.idleLocked()
	if err := l.usableLocked(); err != nil {
		l.mu.Unlock()
		l.barrier.Unlock()
		cinc(l.opts.Stats.SnapshotErrors)
		return SnapshotInfo{}, err
	}
	// Rotate: records journaled after the barrier drops land in the new
	// segment, which is exactly the replay tail for this snapshot.
	if err := l.rotateLocked(); err != nil {
		l.mu.Unlock()
		l.barrier.Unlock()
		cinc(l.opts.Stats.SnapshotErrors)
		return SnapshotInfo{}, err
	}
	next := l.seg
	l.mu.Unlock()
	states := capture()
	l.barrier.Unlock()

	info, err := l.writeSnapshot(next, states)
	if err != nil {
		cinc(l.opts.Stats.SnapshotErrors)
		return info, err
	}
	info.Elapsed = time.Since(start)
	l.mu.Lock()
	l.lastSnapSeg = next
	l.lastSnapAt = time.Now()
	l.sinceSnap = 0
	l.mu.Unlock()
	cinc(l.opts.Stats.Snapshots)
	hobs(l.opts.Stats.SnapshotNs, info.Elapsed.Nanoseconds())
	gset(l.opts.Stats.SnapshotBytes, info.Bytes)
	l.prune(next)
	return info, nil
}

// writeSnapshot encodes and durably writes the snapshot file.
func (l *Log) writeSnapshot(next uint64, states []ReceiverState) (SnapshotInfo, error) {
	payload := encodeStates(nil, states)
	buf := make([]byte, 0, snapHeader+len(payload))
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, next)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	buf = append(buf, payload...)

	path := l.snapPath(next)
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, buf); err != nil {
		os.Remove(tmp)
		return SnapshotInfo{}, fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return SnapshotInfo{}, fmt.Errorf("wal: snapshot: %w", err)
	}
	syncDir(l.opts.Dir)
	return SnapshotInfo{Path: path, NextSegment: next, Receivers: len(states), Bytes: int64(len(buf))}, nil
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// prune removes segments and snapshots superseded by the snapshot whose
// NextSegment is next. Failures are logged, not fatal: leftovers are
// re-pruned at the next recovery or snapshot.
func (l *Log) prune(next uint64) {
	entries, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		l.warn("wal: prune scan failed", "err", err)
		return
	}
	for _, e := range entries {
		if idx, ok := parseIndexed(e.Name(), segPrefix, segSuffix); ok && idx < next {
			os.Remove(l.segPath(idx))
		}
		if idx, ok := parseIndexed(e.Name(), snapPrefix, snapSuffix); ok && idx < next {
			os.Remove(l.snapPath(idx))
		}
	}
}

// snapshotDoc is a decoded snapshot file.
type snapshotDoc struct {
	NextSegment uint64
	Receivers   []ReceiverState
}

// loadSnapshot reads and fully validates one snapshot file.
func loadSnapshot(path string) (*snapshotDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < snapHeader || string(data[:8]) != snapMagic {
		return nil, fmt.Errorf("%w: bad snapshot header", ErrBadRecord)
	}
	next := binary.LittleEndian.Uint64(data[8:])
	plen := binary.LittleEndian.Uint32(data[16:])
	crc := binary.LittleEndian.Uint32(data[20:])
	if int(plen) != len(data)-snapHeader {
		return nil, fmt.Errorf("%w: snapshot payload %d bytes, header says %d", ErrShortFrame, len(data)-snapHeader, plen)
	}
	payload := data[snapHeader:]
	if got := crc32.Checksum(payload, castagnoli); got != crc {
		return nil, fmt.Errorf("%w: snapshot payload", ErrChecksum)
	}
	receivers, err := decodeStates(payload)
	if err != nil {
		return nil, err
	}
	return &snapshotDoc{NextSegment: next, Receivers: receivers}, nil
}

// encodeStates packs the receiver states. Layout (all varints unless
// noted): version byte, receiver count, then per receiver: recv, then
// the MonitorState — Now, Evicted, identity count, per identity (id,
// lastObs, sample count, per sample (t, 8-byte RSSI bits), claim count,
// per claim (t, 8-byte X bits, 8-byte Y bits, 8-byte RSSI bits)),
// confirm count, per entry (id, flag count, one byte per flag),
// known-Sybil count, per entry (id).
func encodeStates(dst []byte, states []ReceiverState) []byte {
	dst = append(dst, snapVersion)
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
			dst = binary.AppendUvarint(dst, uint64(len(ident.Claims)))
			for _, c := range ident.Claims {
				dst = binary.AppendVarint(dst, int64(c.T))
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.X))
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.Y))
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.RSSI))
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

// stateReader cursors over a snapshot payload with sticky errors, so
// the decode below reads linearly and checks once per block.
type stateReader struct {
	p   []byte
	err error
}

func (r *stateReader) uvarint(field string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.p)
	if n <= 0 {
		r.err = fmt.Errorf("%w: snapshot %s", ErrBadRecord, field)
		return 0
	}
	r.p = r.p[n:]
	return v
}

func (r *stateReader) varint(field string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.p)
	if n <= 0 {
		r.err = fmt.Errorf("%w: snapshot %s", ErrBadRecord, field)
		return 0
	}
	r.p = r.p[n:]
	return v
}

func (r *stateReader) nodeID(field string) vanet.NodeID {
	v := r.uvarint(field)
	if r.err == nil && v > math.MaxUint32 {
		r.err = fmt.Errorf("%w: snapshot %s %d exceeds the node ID space", ErrBadRecord, field, v)
	}
	return vanet.NodeID(v)
}

func (r *stateReader) count(field string, max uint64) int {
	v := r.uvarint(field)
	if r.err == nil && v > max {
		r.err = fmt.Errorf("%w: snapshot %s count %d", ErrFrameSize, field, v)
	}
	if r.err != nil {
		return 0
	}
	return int(v)
}

func (r *stateReader) float(field string) float64 {
	if r.err != nil {
		return 0
	}
	if len(r.p) < 8 {
		r.err = fmt.Errorf("%w: snapshot %s", ErrShortFrame, field)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.p))
	r.p = r.p[8:]
	return v
}

func (r *stateReader) flag(field string) bool {
	if r.err != nil {
		return false
	}
	if len(r.p) < 1 {
		r.err = fmt.Errorf("%w: snapshot %s", ErrShortFrame, field)
		return false
	}
	v := r.p[0]
	r.p = r.p[1:]
	return v != 0
}

// Count sanity caps: a snapshot is trusted state, but it crosses a disk
// boundary — cap the declared counts so a corrupted length cannot drive
// a huge allocation before the decode fails naturally.
const (
	maxSnapReceivers  = 1 << 20
	maxSnapIdentities = 1 << 22
	maxSnapSamples    = 1 << 26
	maxSnapFlags      = 1 << 16
)

func decodeStates(p []byte) ([]ReceiverState, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("%w: empty snapshot payload", ErrShortFrame)
	}
	version := p[0]
	if version != 1 && version != snapVersion {
		return nil, fmt.Errorf("%w: unsupported snapshot version %d", ErrBadRecord, version)
	}
	r := &stateReader{p: p[1:]}
	n := r.count("receivers", maxSnapReceivers)
	out := make([]ReceiverState, 0, min(n, 4096))
	for i := 0; i < n && r.err == nil; i++ {
		rs := ReceiverState{Recv: r.nodeID("recv"), State: &core.MonitorState{}}
		st := rs.State
		st.Now = time.Duration(r.varint("now"))
		st.Evicted = r.uvarint("evicted")
		nid := r.count("identities", maxSnapIdentities)
		for j := 0; j < nid && r.err == nil; j++ {
			ident := core.IdentityState{ID: r.nodeID("id"), LastObs: time.Duration(r.varint("last_obs"))}
			ns := r.count("samples", maxSnapSamples)
			ident.Samples = make([]timeseries.Sample, 0, min(ns, 65536))
			for k := 0; k < ns && r.err == nil; k++ {
				ident.Samples = append(ident.Samples, timeseries.Sample{
					T:    time.Duration(r.varint("t")),
					RSSI: r.float("rssi"),
				})
			}
			if version >= 2 {
				ncl := r.count("claims", maxSnapSamples)
				for k := 0; k < ncl && r.err == nil; k++ {
					ident.Claims = append(ident.Claims, core.ClaimSample{
						T:    time.Duration(r.varint("claim t")),
						X:    r.float("claim x"),
						Y:    r.float("claim y"),
						RSSI: r.float("claim rssi"),
					})
				}
			}
			st.Identities = append(st.Identities, ident)
		}
		nc := r.count("confirm entries", maxSnapIdentities)
		for j := 0; j < nc && r.err == nil; j++ {
			c := core.ConfirmState{ID: r.nodeID("id")}
			nf := r.count("flags", maxSnapFlags)
			for k := 0; k < nf && r.err == nil; k++ {
				c.Flags = append(c.Flags, r.flag("flag"))
			}
			st.Confirm = append(st.Confirm, c)
		}
		nk := r.count("known sybil", maxSnapIdentities)
		for j := 0; j < nk && r.err == nil; j++ {
			st.KnownSybil = append(st.KnownSybil, r.nodeID("id"))
		}
		out = append(out, rs)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing snapshot bytes", ErrBadRecord, len(r.p))
	}
	return out, nil
}

// segmentRef is one replayable segment and its validated extent.
type segmentRef struct {
	index    uint64
	validLen int64
}

// Recovery is what Open found on disk: the newest loadable snapshot (if
// any) and the validated record tail to replay on top of it.
type Recovery struct {
	// Snapshot holds the per-receiver states of the newest loadable
	// snapshot, in the order they were captured (ascending receiver).
	// Nil when no snapshot was loadable.
	Snapshot []ReceiverState
	// SnapshotPath names the loaded snapshot file ("" when none).
	SnapshotPath string
	// Records counts the records Replay has applied so far.
	Records int

	dir      string
	segments []segmentRef
	stats    Stats
}

// Replay streams the validated record tail through apply, oldest first.
// The extents were CRC-validated by Open, so a decode failure here
// means the files changed underfoot and is returned as an error. Replay
// stops at the first apply error.
func (r *Recovery) Replay(apply func(Record) error) error {
	for _, seg := range r.segments {
		path := filepath.Join(r.dir, fmt.Sprintf("%s%020d%s", segPrefix, seg.index, segSuffix))
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("wal: replay: %w", err)
		}
		if int64(len(data)) < seg.validLen {
			return fmt.Errorf("wal: replay: %s shrank below its validated extent", path)
		}
		off := int64(segHeader)
		for off < seg.validLen {
			rec, n, err := DecodeRecord(data[off:seg.validLen])
			if err != nil {
				return fmt.Errorf("wal: replay %s at offset %d: %w", path, off, err)
			}
			if err := apply(rec); err != nil {
				return err
			}
			r.Records++
			cinc(r.stats.ReplayedRecords)
			off += int64(n)
		}
	}
	return nil
}
