package service

import (
	"encoding/json"
	"testing"
)

// canonicalObservationLines are decoded by the fast path; validation may
// still reject some of them (negative t_ms, schema out of range).
var canonicalObservationLines = []string{
	`{"recv":901,"sender":102,"t_ms":18400,"rssi":-71.25}`,
	`{"recv":901,"sender":102,"t_ms":18400,"rssi":-71.25,"schema":1,"pos":{"x":42.5,"y":-3.75}}`,
	" \t{ \"recv\" : 4294967295 ,\n\"sender\":0,\"t_ms\":9223372036854775807,\"rssi\":-0 }\r\n",
	`{"recv":1,"sender":2,"t_ms":-9223372036854775808,"rssi":1E+2}`,
	`{"recv":1,"sender":2,"t_ms":-0,"rssi":1.5e-3,"schema":0}`,
	`{"recv":1,"sender":2,"t_ms":-1,"rssi":-70}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,"schema":2}`,
	`{"rssi":-70,"pos":{"y":1,"x":-0},"t_ms":5,"sender":2,"recv":1}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":1e-400,"pos":{"x":0.1e+1,"y":2E-1}}`,
}

// fallbackObservationLines each carry one reason for the fast path to
// decline, leaving the line to json.Unmarshal.
var fallbackObservationLines = []string{
	``,
	`not json`,
	`[1,2,3]`,
	`null`,
	`{}`,
	`{"RSSI":-70,"recv":1,"sender":2,"t_ms":0}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,"Schema":1}`,
	`{"\u0072ecv":1,"sender":2,"t_ms":0,"rssi":-70}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,"extra":true}`,
	`{"recv":1,"recv":3,"sender":2,"t_ms":0,"rssi":-70}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,"pos":{"x":1,"x":2,"y":3}}`,
	`{"recv":null,"sender":2,"t_ms":0,"rssi":-70}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,"pos":null}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,"schema":1,"pos":{}}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,"schema":1,"pos":{"x":1}}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,"schema":1,"pos":{"x":1,"y":2,"z":3}}`,
	`{"recv":4294967296,"sender":2,"t_ms":0,"rssi":-70}`,
	`{"recv":1,"sender":2,"t_ms":9223372036854775808,"rssi":-70}`,
	`{"recv":1,"sender":2,"t_ms":-9223372036854775809,"rssi":-70}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,"schema":9223372036854775808}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":1e999}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,"pos":{"x":0,"y":-1e999}}`,
	`{"recv":-0,"sender":2,"t_ms":0,"rssi":-70}`,
	`{"recv":1E+2,"sender":2,"t_ms":0,"rssi":-70}`,
	`{"recv":1.5,"sender":2,"t_ms":0,"rssi":-70}`,
	`{"recv":01,"sender":2,"t_ms":0,"rssi":-70}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-01.5}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":1.}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":.5}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":1e}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":0x10}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":NaN}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":"loud"}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70}x`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70}{}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70,}`,
	`{"recv":1,"sender":2,"t_ms":0,"rssi":-70`,
}

// TestScanObservationDecisions pins which lines the fast path decodes:
// everything json.Marshal emits, and none of the fallback triggers.
func TestScanObservationDecisions(t *testing.T) {
	for _, o := range []Observation{
		{Recv: 901, Sender: 102, TMs: 18400, RSSI: -71.25},
		{Recv: 1<<32 - 1, Sender: 0, TMs: 1<<63 - 1, RSSI: 1e-300},
		{Recv: 901, Sender: 102, TMs: 18400, RSSI: -71.25, Schema: 1, Pos: &Position{X: 42.5, Y: -3.75}},
		{Recv: 3, Sender: 4, RSSI: -90.123456789, Pos: &Position{X: 1e21, Y: -1e-7}},
	} {
		line, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := scanObservation(line)
		if !ok {
			t.Errorf("fast path declined json.Marshal output %s", line)
			continue
		}
		if (got.Pos == nil) != (o.Pos == nil) || got.Pos != nil && *got.Pos != *o.Pos {
			t.Errorf("%s: pos = %v, want %v", line, got.Pos, o.Pos)
		}
		got.Pos, o.Pos = nil, nil
		if got != o {
			t.Errorf("%s decoded to %+v, want %+v", line, got, o)
		}
	}
	for _, line := range canonicalObservationLines {
		if _, ok := scanObservation([]byte(line)); !ok {
			t.Errorf("fast path declined canonical line %q", line)
		}
	}
	for _, line := range fallbackObservationLines {
		if _, ok := scanObservation([]byte(line)); ok {
			t.Errorf("fast path decoded fallback line %q", line)
		}
	}
}

// TestParseObservationAllocs pins the fast path's allocation budget:
// none for a schema-0 line, and only the *Position for a schema-1 line.
func TestParseObservationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	for _, tc := range []struct {
		line string
		want float64
	}{
		{canonicalObservationLines[0], 0},
		{canonicalObservationLines[1], 1},
	} {
		line := []byte(tc.line)
		got := testing.AllocsPerRun(200, func() {
			if _, err := ParseObservation(line); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.want {
			t.Errorf("ParseObservation(%s): %v allocs, want %v", line, got, tc.want)
		}
	}
}

var parsedSink Observation

// BenchmarkParseObservation measures the per-line decode cost of the
// canonical schema-0 and schema-1 lines.
func BenchmarkParseObservation(b *testing.B) {
	for _, bc := range []struct {
		name, line string
	}{
		{"schema0", canonicalObservationLines[0]},
		{"schema1", canonicalObservationLines[1]},
	} {
		b.Run(bc.name, func(b *testing.B) {
			line := []byte(bc.line)
			b.SetBytes(int64(len(line)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o, err := ParseObservation(line)
				if err != nil {
					b.Fatal(err)
				}
				parsedSink = o
			}
		})
	}
}
