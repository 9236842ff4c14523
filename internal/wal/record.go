// Package wal is voiceprintd's durability subsystem: an append-only,
// length-prefixed and CRC32C-framed write-ahead log of ingest
// observations and detection-round boundaries, compacted periodically
// into snapshots of the per-receiver monitor state. Recovery loads the
// newest valid snapshot, replays the log tail through the normal ingest
// and round paths, and truncates torn final records — so a daemon
// restart resumes every in-progress Sybil conviction instead of
// silently resetting it.
//
// The package is dependency-free (stdlib plus the repo's own core/obs
// layers) and knows nothing about the network service: it journals
// opaque Records and snapshots core.MonitorState values. The service
// layer decides what to journal and how to re-apply it.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"voiceprint/internal/vanet"
)

// Kind discriminates WAL record payloads.
type Kind uint8

const (
	// KindObservation journals one ingest step (journaled before it is
	// applied, so a crash between the two replays it). Replay re-runs
	// the same Registry.Observe call; drops and clamps re-resolve
	// identically because the monitor pipeline is deterministic.
	KindObservation Kind = 1
	// KindRound journals one detection-round boundary (journaled after
	// the round ran, under the same snapshot barrier). Replay re-runs
	// the round at the same window end; At < 0 means a live round
	// (window ending at the receiver's newest observation).
	KindRound Kind = 2
	// KindObservationPos journals an ingest step whose beacon carried a
	// claimed sender position (X, Y: claimed minus receiver position,
	// meters). Replay reconstructs the fusion signals' claim evidence;
	// a fusion-off daemon replays it as a plain observation. Logs
	// written before this kind existed decode unchanged.
	KindObservationPos Kind = 3
)

// Record is one journaled event. Observations carry Recv, Sender, T and
// RSSI (positioned ones add X and Y); rounds carry Recv and At.
type Record struct {
	Kind   Kind
	Recv   vanet.NodeID
	Sender vanet.NodeID
	T      time.Duration
	RSSI   float64
	At     time.Duration
	X, Y   float64
}

// Framing: [uint32 LE payload length][uint32 LE CRC32C(payload)][payload].
// The payload starts with the Kind byte; integers are varint-encoded,
// RSSI is the raw IEEE-754 bits. CRC32C (Castagnoli) detects torn and
// bit-flipped frames; the length prefix bounds how far a decoder reads.
const (
	frameHeader = 8
	// maxPayload rejects implausible length prefixes before any
	// allocation or long scan: a record payload is tens of bytes, so a
	// length beyond this is certainly garbage read from a torn tail.
	maxPayload = 1 << 16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Decode-error taxonomy. Every malformed input maps to one of these
// (wrapped with detail) — never a panic — so recovery can treat any
// decode failure as "the valid prefix ends here".
var (
	// ErrShortFrame reports a frame cut off mid-header or mid-payload.
	ErrShortFrame = errors.New("wal: truncated frame")
	// ErrFrameSize reports an implausible length prefix.
	ErrFrameSize = errors.New("wal: implausible frame length")
	// ErrChecksum reports a payload that fails its CRC32C.
	ErrChecksum = errors.New("wal: frame checksum mismatch")
	// ErrBadRecord reports a CRC-valid payload that does not parse as a
	// record (unknown kind, short or over-long field encoding).
	ErrBadRecord = errors.New("wal: malformed record payload")
)

// AppendRecord appends r's framed encoding to dst and returns the
// extended slice. The only error is an unknown Kind.
func AppendRecord(dst []byte, r Record) ([]byte, error) {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeader)...)
	switch r.Kind {
	case KindObservation:
		dst = append(dst, byte(KindObservation))
		dst = binary.AppendUvarint(dst, uint64(r.Recv))
		dst = binary.AppendUvarint(dst, uint64(r.Sender))
		dst = binary.AppendVarint(dst, int64(r.T))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.RSSI))
	case KindRound:
		dst = append(dst, byte(KindRound))
		dst = binary.AppendUvarint(dst, uint64(r.Recv))
		dst = binary.AppendVarint(dst, int64(r.At))
	case KindObservationPos:
		dst = append(dst, byte(KindObservationPos))
		dst = binary.AppendUvarint(dst, uint64(r.Recv))
		dst = binary.AppendUvarint(dst, uint64(r.Sender))
		dst = binary.AppendVarint(dst, int64(r.T))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.RSSI))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.X))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Y))
	default:
		return dst[:start], errUnknownKind(r.Kind)
	}
	payload := dst[start+frameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst, nil
}

// errUnknownKind formats AppendRecord's only failure off the append hot
// path: fmt's argument boxing is a heap allocation. Kept out of line so
// the boxing stays in this cold frame instead of being inlined into
// AppendRecord, which runs once per journaled record.
//
//go:noinline
func errUnknownKind(k Kind) error {
	return fmt.Errorf("%w: unknown kind %d", ErrBadRecord, k)
}

// DecodeRecord decodes the first framed record in b, returning it and
// the number of bytes consumed. Any truncation, corruption or malformed
// payload returns a zero count and an error from the taxonomy above;
// DecodeRecord never panics on arbitrary input.
func DecodeRecord(b []byte) (Record, int, error) {
	var r Record
	if len(b) < frameHeader {
		return r, 0, fmt.Errorf("%w: %d header bytes of %d", ErrShortFrame, len(b), frameHeader)
	}
	n := binary.LittleEndian.Uint32(b)
	if n == 0 || n > maxPayload {
		return r, 0, fmt.Errorf("%w: %d bytes", ErrFrameSize, n)
	}
	if len(b)-frameHeader < int(n) {
		return r, 0, fmt.Errorf("%w: %d payload bytes of %d", ErrShortFrame, len(b)-frameHeader, n)
	}
	payload := b[frameHeader : frameHeader+int(n)]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(b[4:]); got != want {
		return r, 0, fmt.Errorf("%w: computed %08x, stored %08x", ErrChecksum, got, want)
	}
	if err := decodePayload(payload, &r); err != nil {
		return r, 0, err
	}
	return r, frameHeader + int(n), nil
}

// decodePayload parses a CRC-valid payload. Trailing bytes after the
// last field are rejected: a frame either is exactly one record or it
// is malformed.
func decodePayload(p []byte, r *Record) error {
	r.Kind = Kind(p[0])
	p = p[1:]
	switch r.Kind {
	case KindObservation, KindObservationPos:
		recv, p, err := takeNodeID(p, "recv")
		if err != nil {
			return err
		}
		sender, p, err := takeNodeID(p, "sender")
		if err != nil {
			return err
		}
		t, n := binary.Varint(p)
		if n <= 0 {
			return fmt.Errorf("%w: bad t varint", ErrBadRecord)
		}
		p = p[n:]
		want := 8
		if r.Kind == KindObservationPos {
			want = 24
		}
		if len(p) != want {
			return fmt.Errorf("%w: %d float bytes of %d", ErrBadRecord, len(p), want)
		}
		r.Recv, r.Sender = recv, sender
		r.T = time.Duration(t)
		r.RSSI = math.Float64frombits(binary.LittleEndian.Uint64(p))
		if r.Kind == KindObservationPos {
			r.X = math.Float64frombits(binary.LittleEndian.Uint64(p[8:]))
			r.Y = math.Float64frombits(binary.LittleEndian.Uint64(p[16:]))
		}
	case KindRound:
		recv, p, err := takeNodeID(p, "recv")
		if err != nil {
			return err
		}
		at, n := binary.Varint(p)
		if n <= 0 {
			return fmt.Errorf("%w: bad at varint", ErrBadRecord)
		}
		if len(p) != n {
			return fmt.Errorf("%w: %d trailing bytes", ErrBadRecord, len(p)-n)
		}
		r.Recv = recv
		r.At = time.Duration(at)
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrBadRecord, r.Kind)
	}
	return nil
}

// takeNodeID consumes one uvarint-encoded node ID, rejecting values
// beyond the 32-bit ID space.
func takeNodeID(p []byte, field string) (vanet.NodeID, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, p, fmt.Errorf("%w: bad %s varint", ErrBadRecord, field)
	}
	if v > math.MaxUint32 {
		return 0, p, fmt.Errorf("%w: %s %d exceeds the node ID space", ErrBadRecord, field, v)
	}
	return vanet.NodeID(v), p[n:], nil
}
