// Package service turns the Voiceprint library into a long-running
// streaming detection service: the online counterpart of the offline
// batch CLIs, and the deployment shape the paper sketches — an OBU
// process sitting in the vehicle's receive path, ingesting RSSI
// observations as beacons arrive and publishing Sybil verdicts as they
// are confirmed.
//
// The service is organized as four small layers:
//
//   - protocol: a line-delimited NDJSON wire format for observations in
//     and verdict events out (this file),
//   - registry: a concurrency-safe shard of per-receiver core.Monitor
//     instances,
//   - scheduler: a bounded worker pool running one sweep's detection
//     rounds, one per receiver (the O(n²) pairwise DTW phase
//     additionally parallelizes inside core via Config.Workers),
//   - server: TCP/Unix listeners with bounded per-connection ingest
//     buffers (explicit drop accounting instead of unbounded memory),
//     the period ticker that runs one DetectNow sweep per period, an
//     event broadcast fan-out, and an HTTP admin surface.
//
// Replay feeds a recorded trace CSV through the same ingest path as fast
// as the detector keeps up, so the daemon's pipeline is testable against
// the offline fixtures and cmd/voiceprint is a thin shell over it.
// DefaultMonitorConfig is the one detection posture both start from.
package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"voiceprint/internal/vanet"
)

// Observation is one received beacon on the wire: a line of JSON such as
//
//	{"recv":901,"sender":102,"t_ms":18400,"rssi":-71.25}
//
// recv is the observing receiver (one physical OBU per receiver ID),
// sender the claimed identity of the transmitter, t_ms the receiver's
// beacon timestamp in milliseconds since its stream epoch, rssi the
// measured signal strength in dBm.
//
// Schema-1 clients may additionally attach the beacon's claimed sender
// position:
//
//	{"recv":901,"sender":102,"t_ms":18400,"rssi":-71.25,
//	 "schema":1,"pos":{"x":42.5,"y":-3.75}}
//
// pos is the claimed position relative to the receiver, meters, so the
// claimed range is hypot(x, y). Both fields are optional: position-less
// schema-0 lines parse exactly as before, and a schema-0 daemon ignores
// pos.
type Observation struct {
	Recv   vanet.NodeID `json:"recv"`
	Sender vanet.NodeID `json:"sender"`
	TMs    int64        `json:"t_ms"`
	RSSI   float64      `json:"rssi"`
	// Schema versions the optional trailing fields; 0 (omitted) is the
	// original position-less form, 1 adds pos.
	Schema int `json:"schema,omitempty"`
	// Pos is the claimed sender position relative to the receiver,
	// meters. Nil when the beacon carried no position.
	Pos *Position `json:"pos,omitempty"`
}

// Position is a claimed planar position in the receiver's local frame.
type Position struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// T returns the observation timestamp as a stream offset.
func (o Observation) T() time.Duration { return time.Duration(o.TMs) * time.Millisecond }

// ErrMalformed wraps any parse or validation failure of an inbound line.
var ErrMalformed = errors.New("service: malformed observation")

// ParseObservation parses and validates one NDJSON line.
//
// A line in canonical form (see scanObservation) is decoded by a
// hand-written scanner without allocating; any other line goes through
// json.Unmarshal. Both paths yield the same values and the same errors.
func ParseObservation(line []byte) (Observation, error) {
	var o Observation
	if err := parseObservation(line, &o, nil); err != nil {
		return Observation{}, err
	}
	return o, nil
}

// parseObservation is ParseObservation decoding into *o, which is
// undefined after an error, and a canonical line's claimed position into
// *pos, or into a new Position when pos is nil.
func parseObservation(line []byte, o *Observation, pos *Position) error {
	if !scanObservation(line, o, pos) {
		var err error
		if *o, err = unmarshalObservation(line); err != nil {
			return err
		}
	}
	return validateObservation(o)
}

// validateObservation applies the checks JSON decoding alone does not.
func validateObservation(o *Observation) error {
	if o.TMs < 0 {
		return fmt.Errorf("%w: negative t_ms %d", ErrMalformed, o.TMs)
	}
	if math.IsNaN(o.RSSI) || math.IsInf(o.RSSI, 0) {
		return fmt.Errorf("%w: non-finite rssi", ErrMalformed)
	}
	if o.Schema < 0 || o.Schema > 1 {
		return fmt.Errorf("%w: unsupported schema %d", ErrMalformed, o.Schema)
	}
	if o.Pos != nil {
		if math.IsNaN(o.Pos.X) || math.IsInf(o.Pos.X, 0) ||
			math.IsNaN(o.Pos.Y) || math.IsInf(o.Pos.Y, 0) {
			return fmt.Errorf("%w: non-finite pos", ErrMalformed)
		}
	}
	return nil
}

// unmarshalObservation is ParseObservation's general path. Its
// Observation is its own: a variable whose address goes to
// json.Unmarshal is moved to the heap, and sharing one with the fast
// path would cost that allocation on every line.
func unmarshalObservation(line []byte) (Observation, error) {
	var o Observation
	if err := json.Unmarshal(line, &o); err != nil {
		return Observation{}, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return o, nil
}

// Event is one detection-round verdict on the outbound stream: a line of
// JSON such as
//
//	{"type":"round","recv":901,"t_ms":20000,"density":4.5,
//	 "considered":9,"suspects":[1,101,102],"confirmed":[1,101,102]}
//
// suspects are this round's flags, confirmed the identities currently
// confirmed under the multi-period K-of-N rule.
type Event struct {
	Type       string         `json:"type"`
	Recv       vanet.NodeID   `json:"recv"`
	TMs        int64          `json:"t_ms"`
	Density    float64        `json:"density"`
	Considered int            `json:"considered"`
	Skipped    int            `json:"skipped,omitempty"`
	Suspects   []vanet.NodeID `json:"suspects"`
	Confirmed  []vanet.NodeID `json:"confirmed"`
	LatencyMs  float64        `json:"latency_ms,omitempty"`
	Error      string         `json:"error,omitempty"`
	// Signals carries per-suspect, per-signal attribution on
	// fusion-enabled rounds: which signal flagged the identity and with
	// what strength, e.g. {"101":{"voiceprint":0.0031,"position":18.2}}.
	// Omitted entirely when fusion is off, so plain events stay
	// byte-identical to the pre-fusion encoding.
	Signals map[vanet.NodeID]map[string]float64 `json:"signals,omitempty"`
}

// EventFromOutcome renders a completed round as a wire event.
func EventFromOutcome(o RoundOutcome) Event {
	ev := Event{
		Type:      "round",
		Recv:      o.Recv,
		TMs:       o.At.Milliseconds(),
		LatencyMs: float64(o.Latency.Microseconds()) / 1e3,
	}
	if o.Err != nil {
		ev.Error = o.Err.Error()
		return ev
	}
	ev.Density = o.Result.Density
	ev.Considered = len(o.Result.Considered)
	ev.Skipped = o.Result.Skipped
	ev.Suspects = sortedIDs(o.Result.Suspects)
	ev.Confirmed = sortedIDs(o.Confirmed)
	ev.Signals = o.Result.Signals
	return ev
}

// Encode renders the event as one NDJSON line (trailing newline
// included). Events with nil ID slices encode them as [] so consumers
// never see null.
func (e Event) Encode() []byte {
	if e.Suspects == nil {
		e.Suspects = []vanet.NodeID{}
	}
	if e.Confirmed == nil {
		e.Confirmed = []vanet.NodeID{}
	}
	b, err := json.Marshal(e)
	if err != nil {
		// Unreachable: Event has no unmarshalable fields.
		b = []byte(`{"type":"error","error":"encode failure"}`)
	}
	return append(b, '\n')
}

// DecodeEvent parses and validates one NDJSON verdict line written by
// Event.Encode. It is the consumer-side counterpart of Encode: clients
// (and the replay/chaos test harnesses) use it to read the daemon's
// event stream without trusting the transport. Nil ID slices decode to
// empty ones, so Encode→Decode round-trips the canonical form exactly.
func DecodeEvent(line []byte) (Event, error) {
	var e Event
	if err := json.Unmarshal(line, &e); err != nil {
		return Event{}, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if e.Type == "" {
		return Event{}, fmt.Errorf("%w: event missing type", ErrMalformed)
	}
	if e.TMs < 0 {
		return Event{}, fmt.Errorf("%w: negative t_ms %d", ErrMalformed, e.TMs)
	}
	if e.Considered < 0 || e.Skipped < 0 {
		return Event{}, fmt.Errorf("%w: negative round counts", ErrMalformed)
	}
	for _, f := range [...]float64{e.Density, e.LatencyMs} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return Event{}, fmt.Errorf("%w: non-finite event field", ErrMalformed)
		}
	}
	for id, attr := range e.Signals {
		if attr == nil {
			return Event{}, fmt.Errorf("%w: null signal attribution for %d", ErrMalformed, id)
		}
		for name, v := range attr {
			if name == "" {
				return Event{}, fmt.Errorf("%w: empty signal name for %d", ErrMalformed, id)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return Event{}, fmt.Errorf("%w: non-finite %s signal score for %d", ErrMalformed, name, id)
			}
		}
	}
	if e.Suspects == nil {
		e.Suspects = []vanet.NodeID{}
	}
	if e.Confirmed == nil {
		e.Confirmed = []vanet.NodeID{}
	}
	// An empty signals object re-encodes as an omitted field (omitempty),
	// so canonicalize it to nil to keep Encode→Decode a fixed point.
	if len(e.Signals) == 0 {
		e.Signals = nil
	}
	return e, nil
}

// LineScanner reads newline-delimited frames, tolerating oversized
// lines: a line longer than max bytes is discarded up to its newline and
// counted, then scanning continues — unlike bufio.Scanner, whose
// ErrTooLong permanently poisons the scanner and (in the pre-hardening
// server) killed the whole connection over one abusive or corrupted
// frame. Memory stays bounded while skipping: the partial line is
// released as soon as the overflow is detected.
type LineScanner struct {
	r         *bufio.Reader
	max       int
	line      []byte
	err       error
	oversized uint64
}

// NewLineScanner wraps r with a line scanner capping lines at max bytes
// (exclusive of the line terminator). max must be positive.
func NewLineScanner(r io.Reader, max int) *LineScanner {
	if max <= 0 {
		max = 64 << 10
	}
	buf := max + 2 // room for \r\n so a max-length line needs one read
	if buf > 64<<10 {
		buf = 64 << 10
	}
	return &LineScanner{r: bufio.NewReaderSize(r, buf), max: max}
}

// Scan advances to the next line within bounds, skipping (and counting)
// oversized ones. It returns false at end of stream or on a read error.
func (s *LineScanner) Scan() bool {
	if s.err != nil {
		return false
	}
	s.line = s.line[:0]
	skipping := false
	for {
		frag, err := s.r.ReadSlice('\n')
		if !skipping {
			s.line = append(s.line, frag...)
			if len(s.line) > s.max+2 {
				skipping = true
				s.line = s.line[:0]
			}
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			s.err = err
			if skipping {
				s.oversized++
				return false
			}
			// Deliver a non-empty unterminated tail like bufio.Scanner.
			s.line = trimEOL(s.line)
			if len(s.line) > s.max {
				s.oversized++
				return false
			}
			return len(s.line) > 0
		}
		if skipping {
			s.oversized++
			s.line = s.line[:0]
			skipping = false
			continue
		}
		s.line = trimEOL(s.line)
		if len(s.line) > s.max {
			s.oversized++
			s.line = s.line[:0]
			continue
		}
		return true
	}
}

// Bytes returns the current line without its terminator. The slice is
// reused by the next Scan.
func (s *LineScanner) Bytes() []byte { return s.line }

// Err returns the first non-EOF read error.
func (s *LineScanner) Err() error {
	if s.err == io.EOF {
		return nil
	}
	return s.err
}

// Oversized returns how many lines were discarded for exceeding the cap.
func (s *LineScanner) Oversized() uint64 { return s.oversized }

// trimEOL strips one trailing "\n" or "\r\n".
func trimEOL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
		if n := len(b); n > 0 && b[n-1] == '\r' {
			b = b[:n-1]
		}
	}
	return b
}

// sortedIDs flattens a set of identities into an ascending slice.
func sortedIDs(set map[vanet.NodeID]bool) []vanet.NodeID {
	out := make([]vanet.NodeID, 0, len(set))
	for id, v := range set {
		if v {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
