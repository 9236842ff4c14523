package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// referenceParseObservation is the observation decoder without its fast
// path: json.Unmarshal plus the shared validation.
func referenceParseObservation(line []byte) (Observation, error) {
	var o Observation
	if err := json.Unmarshal(line, &o); err != nil {
		return Observation{}, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if err := validateObservation(&o); err != nil {
		return Observation{}, err
	}
	return o, nil
}

// FuzzParseObservation checks ParseObservation against the
// json.Unmarshal reference on arbitrary bytes. Contracts: the
// accept/reject decision matches; every rejection is ErrMalformed with
// the reference's exact error string; and accepted fields are
// bit-identical — floats compared by Float64bits, so -0 and +0 differ —
// with the same Pos nil-ness.
func FuzzParseObservation(f *testing.F) {
	for _, line := range canonicalObservationLines {
		f.Add([]byte(line))
	}
	for _, line := range fallbackObservationLines {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ParseObservation(data)
		want, wantErr := referenceParseObservation(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ParseObservation(%q) err = %v, reference err = %v", data, err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, ErrMalformed) || err.Error() != wantErr.Error() {
				t.Fatalf("ParseObservation(%q) err = %q, want ErrMalformed %q", data, err, wantErr)
			}
			return
		}
		if got.Recv != want.Recv || got.Sender != want.Sender || got.TMs != want.TMs ||
			got.Schema != want.Schema || !sameBits(got.RSSI, want.RSSI) ||
			(got.Pos == nil) != (want.Pos == nil) ||
			got.Pos != nil && (!sameBits(got.Pos.X, want.Pos.X) || !sameBits(got.Pos.Y, want.Pos.Y)) {
			t.Fatalf("ParseObservation(%q) = %+v pos %v, reference %+v pos %v",
				data, got, got.Pos, want, want.Pos)
		}
	})
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// FuzzDecodeEvent hammers the consumer-side verdict decoder with
// arbitrary bytes. Contracts: it never panics, every rejection is
// ErrMalformed, every accepted event is in canonical form (non-nil ID
// slices, finite floats, non-negative counts), and canonical form is a
// fixed point — Encode followed by DecodeEvent reproduces the event
// exactly.
func FuzzDecodeEvent(f *testing.F) {
	// Real encoder output, plus the malformed shapes the protocol tests
	// pin down for the observation parser.
	f.Add([]byte(`{"type":"round","recv":901,"t_ms":20000,"density":4.5,"considered":9,"suspects":[1,101,102],"confirmed":[101]}`))
	f.Add([]byte(`{"type":"round","recv":7,"t_ms":0,"density":0,"considered":0,"suspects":[],"confirmed":[]}`))
	f.Add([]byte(`{"type":"round","recv":7,"t_ms":0,"suspects":null,"confirmed":null}`))
	f.Add([]byte(`{"type":"round","recv":7,"t_ms":1000,"error":"boom"}`))
	f.Add([]byte(`{"type":"round","recv":901,"t_ms":20000,"considered":9,"suspects":[101,102],"confirmed":[101],"signals":{"101":{"voiceprint":0.0031,"position":18.2},"102":{"clique":1}}}`))
	f.Add([]byte(`{"type":"round","recv":1,"t_ms":0,"signals":{}}`))
	f.Add([]byte(`{"type":"round","recv":1,"t_ms":0,"signals":{"5":null}}`))
	f.Add([]byte(`{"type":"round","recv":1,"t_ms":0,"signals":{"5":{"":1}}}`))
	f.Add([]byte(`{"type":"round","recv":1,"t_ms":0,"signals":{"5":{"position":1e999}}}`))
	f.Add([]byte(`{"type":"round","recv":1,"t_ms":-5}`))
	f.Add([]byte(`{"recv":1,"t_ms":5}`))
	f.Add([]byte(`{"type":"round","t_ms":0,"density":1e999}`))
	f.Add([]byte(``))
	f.Add([]byte(`not json`))
	f.Add([]byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ev, err := DecodeEvent(data)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("DecodeEvent(%q) err = %v, want ErrMalformed", data, err)
			}
			return
		}
		if ev.Suspects == nil || ev.Confirmed == nil {
			t.Fatalf("accepted event has nil ID slices: %+v", ev)
		}
		if ev.TMs < 0 || ev.Considered < 0 || ev.Skipped < 0 {
			t.Fatalf("accepted event has negative counts: %+v", ev)
		}
		again, err := DecodeEvent(ev.Encode())
		if err != nil {
			t.Fatalf("re-decoding encoded event failed: %v (%+v)", err, ev)
		}
		if !reflect.DeepEqual(ev, again) {
			t.Fatalf("Encode/Decode not a fixed point:\n first %+v\nsecond %+v", ev, again)
		}
	})
}

// FuzzLineScanner feeds arbitrary byte streams through the
// oversized-tolerant scanner, whole or in short reads (iotest's
// OneByteReader or HalfReader, picked by the fuzz input), so frames
// straddle buffer refills. Contracts: no panic, the scanner always
// terminates, a plain byte stream never surfaces a read error, and
// every frame comes out right: each newline-terminated frame, and a
// non-empty unterminated tail, is either delivered as its exact bytes
// minus its "\n" or "\r\n", or, when that is longer than the cap,
// counted oversized — in order, and never silently lost. This is the
// property bufio.Scanner breaks: one ErrTooLong and every subsequent
// frame of the stream is gone.
func FuzzLineScanner(f *testing.F) {
	f.Add([]byte("{\"recv\":1}\nshort\n"), 8, uint8(0))
	f.Add([]byte("{\"recv\":9,\"sender\":2,\"t_ms\":5,\"rssi\":-70,\"schema\":1,\"pos\":{\"x\":1.5,\"y\":-2}}\n"), 96, uint8(1))
	f.Add([]byte(strings.Repeat("x", 300)+"\nok\n"), 16, uint8(2))
	f.Add([]byte("tail with no newline"), 64, uint8(1))
	f.Add([]byte("\n\n\r\n"), 4, uint8(0))
	f.Add([]byte("abc\r\n"+strings.Repeat("y", 100)), 3, uint8(2))
	f.Add([]byte("a\rb\r\r\n\rc\r"), 2, uint8(1))
	f.Add([]byte(strings.Repeat("0123456789\r\n", 20)), 10, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, max int, mode uint8) {
		max = 1 + ((max%128)+128)%128
		var r io.Reader = bytes.NewReader(data)
		switch mode % 3 {
		case 1:
			r = iotest.OneByteReader(r)
		case 2:
			r = iotest.HalfReader(r)
		}
		var want []string
		wantOversized := 0
		frame := func(line []byte) {
			if len(line) > max {
				wantOversized++
			} else {
				want = append(want, string(line))
			}
		}
		rest := data
		for {
			i := bytes.IndexByte(rest, '\n')
			if i < 0 {
				break
			}
			frame(bytes.TrimSuffix(rest[:i], []byte("\r")))
			rest = rest[i+1:]
		}
		if len(rest) > 0 {
			frame(rest) // an unterminated tail keeps a trailing \r
		}

		s := NewLineScanner(r, max)
		var got []string
		for s.Scan() {
			got = append(got, string(s.Bytes()))
			if len(got) > len(data)+1 {
				t.Fatal("scanner failed to make progress")
			}
		}
		if err := s.Err(); err != nil {
			t.Fatalf("in-memory stream surfaced error: %v", err)
		}
		if int(s.Oversized()) != wantOversized || !slices.Equal(got, want) {
			t.Fatalf("cap %d, mode %d: delivered %q and %d oversized, want %q and %d",
				max, mode%3, got, s.Oversized(), want, wantOversized)
		}
	})
}
