package service

import (
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
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
	// Campaign beacons as json.Marshal writes them: 17-digit floats past
	// 2^53 take divPow10, shorter ones a float division.
	`{"recv":6,"sender":10,"t_ms":100,"rssi":-78.71473932592077,"schema":1,"pos":{"x":264.14068494828473,"y":-10.799999999999999}}`,
	`{"recv":3,"sender":10004,"t_ms":59900,"rssi":-62.70509791043159,"schema":1,"pos":{"x":-0.30000000000000004,"y":1000.0000000000001}}`,
	// 19 significant digits convert directly, 20 go to ParseFloat.
	`{"recv":1,"sender":2,"t_ms":1,"rssi":-9999999999.999999999,"pos":{"x":1234567890123456789,"y":0.1234567890123456789}}`,
	`{"recv":1,"sender":2,"t_ms":1,"rssi":-99999999999.999999999,"pos":{"x":12345678901234567890,"y":1.2345678901234567891}}`,
	// Leading zeros of a fraction are not significant digits, but they
	// count towards its length: 19 places convert directly, 21 do not.
	`{"recv":1,"sender":2,"t_ms":1,"rssi":-0.0000000000000000001,"pos":{"x":0.000123,"y":-0.000000000000000001234}}`,
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
		var got Observation
		if !scanObservation(line, &got, nil) {
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
		if !scanObservation([]byte(line), new(Observation), nil) {
			t.Errorf("fast path declined canonical line %q", line)
		}
	}
	for _, line := range fallbackObservationLines {
		if scanObservation([]byte(line), new(Observation), nil) {
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
// canonical schema-0 and schema-1 lines, and of a schema-1 line as
// json.Marshal writes a simulated beacon, every float in full precision.
func BenchmarkParseObservation(b *testing.B) {
	for _, bc := range []struct {
		name, line string
	}{
		{"schema0", canonicalObservationLines[0]},
		{"schema1", canonicalObservationLines[1]},
		{"schema1-marshal", `{"recv":6,"sender":10,"t_ms":100,"rssi":-78.71473932592077,"schema":1,"pos":{"x":264.14068494828473,"y":-10.799999999999999}}`},
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

// TestDecimalFloatMatchesParseFloat checks the direct float path, a
// token scanned by number and converted by decimalFloat, bit for bit
// against strconv.ParseFloat: shortest forms of random float64s
// at several magnitudes (what json.Marshal writes), random digit
// strings, and exact ties between two float64s.
func TestDecimalFloatMatchesParseFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	handled := 0
	check := func(tok string) {
		t.Helper()
		var n num
		if _, end, ok := number([]byte(tok), 0, &n); !ok || end != len(tok) {
			return // not a JSON number, so never converted
		}
		got, ok := decimalFloat(&n)
		if !ok {
			return
		}
		handled++
		want, err := strconv.ParseFloat(tok, 64)
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("decimalFloat(%s) = %v (%#x), ParseFloat = %v (%#x), %v",
				tok, got, math.Float64bits(got), want, math.Float64bits(want), err)
		}
	}
	for _, tok := range []string{"0", "-0", "0.0", "-0.000", "1", "9007199254740993", "18446744073709551615",
		"9999999999999999999", "0.1", "-62.70509791043159", "264.14068494828473", "-10.799999999999999",
		"0.0000000000000000001", "9.999999999999999999", "1234567890123456789.0"} {
		check(tok)
	}
	for i := 0; i < 200000; i++ {
		v := math.Float64frombits(rng.Uint64()>>2 | 1<<62) // in [2, +Inf)
		v = math.Mod(v, 1e6) * math.Pow(10, float64(rng.Intn(20)-14))
		if rng.Intn(2) == 0 {
			v = -v
		}
		check(strconv.FormatFloat(v, 'f', -1, 64))

		// Up to 20 random digits with a point anywhere.
		b := make([]byte, 0, 22)
		n := 1 + rng.Intn(20)
		point := rng.Intn(n + 1)
		for j := 0; j < n; j++ {
			if j == point && j > 0 {
				b = append(b, '.')
			}
			b = append(b, byte('0'+rng.Intn(10)))
		}
		check(string(b))

		// An odd 54-bit integer lies halfway between two float64s; so do
		// its halves and quarters, written exactly in 19 digits or fewer.
		odd := new(big.Float).SetInt64(int64(rng.Uint64()>>10 | 1<<53 | 1))
		for k := 0; k < 3; k++ {
			check(odd.Text('f', k))
			odd.Quo(odd, big.NewFloat(2))
		}
	}
	if handled < 400000 {
		t.Errorf("only %d tokens took the direct path", handled)
	}
}
