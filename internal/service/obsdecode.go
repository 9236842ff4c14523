package service

import (
	"math"
	"math/bits"
	"strconv"

	"voiceprint/internal/vanet"
)

// This file is ParseObservation's fast path: a hand-written scanner for
// the canonical observation line, the shape json.Marshal(Observation)
// emits, with any JSON whitespace between tokens. It recognizes exactly
// the lower-case keys recv, sender, t_ms and rssi (all required), the
// optional schema, and the optional pos object holding exactly x and y;
// each key at most once, in any order, with numeric values only.
//
// It never rejects a line. Whenever it is not certain that
// encoding/json would decode the line to the same values it declines
// (ok == false) and ParseObservation falls back to json.Unmarshal, so
// every error, and every value json would accept that the scanner does
// not, comes from the general path. Reasons to decline include a
// case-variant or escaped key (json matches keys case-insensitively),
// an unknown or duplicate key, null or any non-number value, a pos
// without both coordinates, an integer out of its field's range, a
// number outside the strict JSON grammar, and trailing bytes.

// Key bits of the canonical decoder, for duplicate and required-key
// tracking.
const (
	keyRecv = 1 << iota
	keySender
	keyTMs
	keyRSSI
	keySchema
	keyPos

	keysRequired = keyRecv | keySender | keyTMs | keyRSSI
)

// obsScanner is a cursor over one line.
type obsScanner struct {
	b []byte
	i int
}

// scanObservation decodes line if it is a canonical observation line;
// false means "not decided here", never "malformed". A claimed position
// goes into *pos, or into a new Position when pos is nil. Validation
// (negative t_ms, schema range, non-finite values) is left to the
// caller, which applies it to both paths alike.
func scanObservation(line []byte, pos *Position) (Observation, bool) {
	var o Observation
	var seen uint8
	var x, y float64
	s := obsScanner{b: line}
	if !s.next('{') {
		return Observation{}, false
	}
	for more := true; more; more = s.next(',') {
		k, ok := s.key()
		if !ok {
			return Observation{}, false
		}
		var bit uint8
		switch string(k) {
		case "recv":
			bit, ok = keyRecv, s.readUint32(&o.Recv)
		case "sender":
			bit, ok = keySender, s.readUint32(&o.Sender)
		case "t_ms":
			bit, ok = keyTMs, s.readInt64(&o.TMs)
		case "rssi":
			bit, ok = keyRSSI, s.readFloat(&o.RSSI)
		case "schema":
			var v int64
			bit, ok = keySchema, s.readInt64(&v)
			o.Schema = int(v)
			ok = ok && int64(o.Schema) == v
		case "pos":
			bit, ok = keyPos, s.position(&x, &y)
		default:
			return Observation{}, false
		}
		if !ok || seen&bit != 0 {
			return Observation{}, false
		}
		seen |= bit
	}
	if !s.next('}') || seen&keysRequired != keysRequired {
		return Observation{}, false
	}
	if s.skipSpace(); s.i != len(s.b) {
		return Observation{}, false
	}
	if seen&keyPos != 0 {
		if pos == nil {
			pos = newPosition()
		}
		*pos = Position{X: x, Y: y}
		o.Pos = pos
	}
	return o, true
}

// newPosition is ParseObservation's one allocation on a schema-1 line,
// kept out of line so it stays out of scanObservation's frame, which
// runs once per ingested line. The server's reader passes batch storage
// instead and allocates nothing.
//
//go:noinline
func newPosition() *Position { return new(Position) }

// position decodes a pos object holding exactly one x and one y.
func (s *obsScanner) position(x, y *float64) bool {
	if !s.next('{') {
		return false
	}
	var seen uint8
	for more := true; more; more = s.next(',') {
		k, ok := s.key()
		if !ok {
			return false
		}
		var bit uint8
		switch string(k) {
		case "x":
			bit, ok = 1, s.readFloat(x)
		case "y":
			bit, ok = 2, s.readFloat(y)
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
	return seen == 3 && s.next('}')
}

// skipSpace advances past JSON whitespace.
func (s *obsScanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (s *obsScanner) next(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key consumes `"name":` and returns name's raw bytes. Escapes are not
// decoded: a name holding a backslash matches no field, so the line
// falls back.
func (s *obsScanner) key() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) && s.b[s.i] != '"' {
		s.i++
	}
	if s.i == len(s.b) {
		return nil, false
	}
	k := s.b[start:s.i]
	s.i++
	return k, s.next(':')
}

// number consumes one token matching the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and reports whether it
// is an integer (no fraction or exponent). What follows the token is the
// caller's to check.
func (s *obsScanner) number() (tok []byte, integer, ok bool) {
	s.skipSpace()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return nil, false, false
		}
		i, integer = j, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return nil, false, false
		}
		i, integer = j, false
	}
	tok, s.i = b[s.i:i], i
	return tok, integer, true
}

// skipDigits returns the index of the first non-digit at or after i.
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// readUint32 decodes a non-negative integer that fits in 32 bits, the
// values json decodes into a vanet.NodeID.
func (s *obsScanner) readUint32(dst *vanet.NodeID) bool {
	tok, integer, ok := s.number()
	if !ok || !integer || tok[0] == '-' || len(tok) > 10 {
		return false
	}
	v := digitsValue(tok)
	if v > math.MaxUint32 {
		return false
	}
	*dst = vanet.NodeID(v)
	return true
}

// readInt64 decodes an integer that fits in 64 bits, the values json
// decodes into an int64 (and, on 64-bit platforms, an int).
func (s *obsScanner) readInt64(dst *int64) bool {
	tok, integer, ok := s.number()
	if !ok || !integer {
		return false
	}
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	// 19 digits always fit a uint64 magnitude; 20 never fit an int64.
	if len(tok) > 19 {
		return false
	}
	mag := digitsValue(tok)
	switch {
	case neg && mag <= 1<<63:
		*dst = -int64(mag)
	case !neg && mag <= math.MaxInt64:
		*dst = int64(mag)
	default:
		return false
	}
	return true
}

// digitsValue is the value of an all-digit token of at most 19 digits.
func digitsValue(tok []byte) uint64 {
	var v uint64
	for _, c := range tok {
		v = v*10 + uint64(c-'0')
	}
	return v
}

// readFloat decodes a number to the float64 strconv.ParseFloat returns,
// as json does, once the token has passed the JSON grammar that
// ParseFloat alone does not enforce (it also takes hex, "inf" and
// "nan"). decimalFloat computes the common case directly; the rest goes
// to ParseFloat, whose error — overflow to ±Inf — declines, leaving
// json's own error to the fallback.
func (s *obsScanner) readFloat(dst *float64) bool {
	tok, _, ok := s.number()
	if !ok {
		return false
	}
	if v, ok := decimalFloat(tok); ok {
		*dst = v
		return true
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return false
	}
	*dst = v
	return true
}

// Powers of ten up to 1e19, exact as float64s and as uint64s.
var (
	float64pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
		1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}
	uint64pow10 = [...]uint64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
		1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}
)

// decimalFloat converts a JSON number token of at most 19 digits and
// without an exponent part to the nearest float64, ties to even: the
// value strconv.ParseFloat returns. It reports false for any other
// token. json.Marshal writes a float64 in this form, in at most 17
// significant digits, unless it is below 1e-6 or from 1e21 up;
// ParseFloat spends most of a line's decode time re-reading such
// tokens.
func decimalFloat(tok []byte) (float64, bool) {
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	if len(tok) > 20 {
		return 0, false
	}
	var m uint64 // at most 19 digits, so m < 1e19 < 2^64
	exp, digits := 0, 0
	for i, c := range tok {
		if c == '.' {
			exp = i + 1 - len(tok)
			continue
		}
		if c-'0' > 9 {
			return 0, false // an exponent part
		}
		m = m*10 + uint64(c-'0')
		digits++
	}
	var f float64
	switch {
	case digits > 19:
		return 0, false
	case m == 0:
	case m <= 1<<53:
		// Both operands are exact, so the division rounds once.
		f = float64(m) / float64pow10[-exp]
	default:
		f = divPow10(m, -exp)
	}
	if neg {
		f = -f
	}
	return f, true
}

// divPow10 is m / 10^k rounded to the nearest float64, ties to even, for
// 2^53 < m < 2^64 and 0 <= k <= 19. It divides m·2^s by 10^k in integers,
// with s chosen so the quotient q has 63 or 64 bits, then rounds q to 53
// bits; a non-zero remainder r only breaks a tie upwards.
func divPow10(m uint64, k int) float64 {
	d := uint64pow10[k]
	s := 63 - bits.Len64(m) + bits.Len64(d) // 2^62 <= m·2^s/d < 2^64
	var hi, lo uint64
	if s < 64 {
		hi, lo = m>>(64-s), m<<s
	} else {
		hi = m << (s - 64)
	}
	q, r := bits.Div64(hi, lo, d)
	drop := bits.Len64(q) - 53
	mant, rest, half := q>>drop, q&(1<<drop-1), uint64(1)<<(drop-1)
	if rest > half || rest == half && (r != 0 || mant&1 == 1) {
		mant++
		if mant == 1<<53 {
			mant >>= 1
			drop++
		}
	}
	// m/10^k lies in [2^53/10^19, 2^64), so the result is normal:
	// mant·2^(drop-s) with mant in [2^52, 2^53).
	return math.Float64frombits(uint64(drop-s+52+1023)<<52 | mant&(1<<52-1))
}
