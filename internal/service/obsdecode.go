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
// (returns false) and ParseObservation falls back to json.Unmarshal, so
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

// The scanner's functions take the line and the offset to scan from and
// return the offset past what they consumed, so the cursor stays in a
// register from one token to the next rather than in memory.

// scanObservation decodes the line b into *o if it is a canonical
// observation line; false means "not decided here", never "malformed",
// and leaves *o undefined. A claimed position goes into *pos, or into a
// new Position when pos is nil. Validation (negative t_ms, schema
// range, non-finite values) is left to the caller, which applies it to
// both paths alike.
func scanObservation(b []byte, o *Observation, pos *Position) bool {
	*o = Observation{}
	var seen uint8
	var x, y float64
	i, ok := next(b, 0, '{')
	if !ok {
		return false
	}
	for more := true; more; i, more = next(b, i, ',') {
		var k []byte
		if k, i, ok = key(b, i); !ok {
			return false
		}
		var bit uint8
		switch string(k) {
		case "recv":
			bit = keyRecv
			i, ok = readUint32(b, i, &o.Recv)
		case "sender":
			bit = keySender
			i, ok = readUint32(b, i, &o.Sender)
		case "t_ms":
			bit = keyTMs
			i, ok = readInt64(b, i, &o.TMs)
		case "rssi":
			bit = keyRSSI
			i, ok = readFloat(b, i, &o.RSSI)
		case "schema":
			var v int64
			bit = keySchema
			i, ok = readInt64(b, i, &v)
			o.Schema = int(v)
			ok = ok && int64(o.Schema) == v
		case "pos":
			bit = keyPos
			i, ok = position(b, i, &x, &y)
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
	if i, ok = next(b, i, '}'); !ok || seen&keysRequired != keysRequired {
		return false
	}
	if skipSpace(b, i) != len(b) {
		return false
	}
	if seen&keyPos != 0 {
		if pos == nil {
			pos = newPosition()
		}
		*pos = Position{X: x, Y: y}
		o.Pos = pos
	}
	return true
}

// newPosition is ParseObservation's one allocation on a schema-1 line,
// kept out of line so it stays out of scanObservation's frame, which
// runs once per ingested line. The server's reader passes batch storage
// instead and allocates nothing.
//
//go:noinline
func newPosition() *Position { return new(Position) }

// position decodes a pos object holding exactly one x and one y.
func position(b []byte, i int, x, y *float64) (int, bool) {
	i, ok := next(b, i, '{')
	if !ok {
		return i, false
	}
	var seen uint8
	for more := true; more; i, more = next(b, i, ',') {
		var k []byte
		if k, i, ok = key(b, i); !ok {
			return i, false
		}
		var bit uint8
		switch string(k) {
		case "x":
			bit = 1
			i, ok = readFloat(b, i, x)
		case "y":
			bit = 2
			i, ok = readFloat(b, i, y)
		default:
			return i, false
		}
		if !ok || seen&bit != 0 {
			return i, false
		}
		seen |= bit
	}
	i, ok = next(b, i, '}')
	return i, ok && seen == 3
}

// skipSpace returns the offset of the first non-whitespace byte at or
// after i. Every whitespace byte is at most ' ', so a canonical line,
// which has none, costs one compare.
func skipSpace(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// next skips whitespace and consumes c if it comes next.
func next(b []byte, i int, c byte) (int, bool) {
	i = skipSpace(b, i)
	if i < len(b) && b[i] == c {
		return i + 1, true
	}
	return i, false
}

// key consumes `"name":` and returns name's raw bytes. Escapes are not
// decoded: a name holding a backslash matches no field, so the line
// falls back.
func key(b []byte, i int) ([]byte, int, bool) {
	i, ok := next(b, i, '"')
	if !ok {
		return nil, i, false
	}
	start := i
	for i < len(b) && b[i] != '"' {
		i++
	}
	if i == len(b) {
		return nil, i, false
	}
	k := b[start:i]
	i, ok = next(b, i+1, ':')
	return k, i, ok
}

// A num is what number learns about a token in its one pass over it.
type num struct {
	// m is the token's digits read as one integer, the point dropped:
	// the value is m / 10^frac. It is exact while digits <= 19.
	m uint64
	// digits counts the token's digits but an integer part of 0, and
	// frac those after the point; an exponent part counts in neither.
	// digits is the significant-digit count, except that it also counts
	// a fraction's leading zeros. frac <= digits, so digits <= 19 keeps
	// m exact and 10^frac in the tables below.
	digits, frac int
	neg          bool // a leading minus
	exp          bool // an exponent part, which m leaves out
}

// integer reports whether the token has neither a fraction nor an
// exponent part.
func (n *num) integer() bool { return n.frac == 0 && !n.exp }

// number consumes one token matching the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, reading each of its
// digits once, and returns the token's offset and the offset past it.
// What follows the token is the caller's to check.
func number(b []byte, i int, n *num) (start, end int, ok bool) {
	i = skipSpace(b, i)
	start = i
	*n = num{}
	if i < len(b) && b[i] == '-' {
		n.neg = true
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		j := i
		n.m, i = accumDigits(b, i, 0)
		n.digits = i - j
	default:
		return start, i, false
	}
	if i < len(b) && b[i] == '.' {
		j := i + 1
		if n.m, i = accumDigits(b, j, n.m); i == j {
			return start, i, false
		}
		n.frac = i - j
		n.digits += n.frac
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := i
		if _, i = accumDigits(b, j, 0); i == j {
			return start, i, false
		}
		n.exp = true
	}
	return start, i, true
}

// accumDigits reads the run of digits at b[i:] onto the end of m in
// base 10, wrapping past 2^64, and returns the new m and the index of
// the first non-digit.
func accumDigits(b []byte, i int, m uint64) (uint64, int) {
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		m = m*10 + uint64(c)
	}
	return m, i
}

// readUint32 decodes a non-negative integer that fits in 32 bits, the
// values json decodes into a vanet.NodeID.
func readUint32(b []byte, i int, dst *vanet.NodeID) (int, bool) {
	var n num
	_, i, ok := number(b, i, &n)
	// 10 digits always fit a uint64.
	if !ok || !n.integer() || n.neg || n.digits > 10 || n.m > math.MaxUint32 {
		return i, false
	}
	*dst = vanet.NodeID(n.m)
	return i, true
}

// readInt64 decodes an integer that fits in 64 bits, the values json
// decodes into an int64 (and, on 64-bit platforms, an int).
func readInt64(b []byte, i int, dst *int64) (int, bool) {
	var n num
	_, i, ok := number(b, i, &n)
	// 19 digits always fit a uint64 magnitude; 20 never fit an int64.
	if !ok || !n.integer() || n.digits > 19 {
		return i, false
	}
	switch {
	case n.neg && n.m <= 1<<63:
		*dst = -int64(n.m)
	case !n.neg && n.m <= math.MaxInt64:
		*dst = int64(n.m)
	default:
		return i, false
	}
	return i, true
}

// readFloat decodes a number to the float64 strconv.ParseFloat returns,
// as json does, once the token has passed the JSON grammar that
// ParseFloat alone does not enforce (it also takes hex, "inf" and
// "nan"). decimalFloat converts the common case from what number
// accumulated; the rest goes to ParseFloat, whose error — overflow to
// ±Inf — declines, leaving json's own error to the fallback.
func readFloat(b []byte, i int, dst *float64) (int, bool) {
	var n num
	start, i, ok := number(b, i, &n)
	if !ok {
		return i, false
	}
	if v, ok := decimalFloat(&n); ok {
		*dst = v
		return i, true
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return i, false
	}
	*dst = v
	return i, true
}

// Powers of ten up to 1e19, exact as float64s and as uint64s.
var (
	float64pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
		1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}
	uint64pow10 = [...]uint64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
		1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}
)

// decimalFloat converts a number of at most 19 digits and without an
// exponent part to the nearest float64, ties to even: the value
// strconv.ParseFloat returns. It reports false for any other number.
// json.Marshal writes a float64 in this form, in at most 17 significant
// digits, unless it is below 1e-6 or from 1e21 up; ParseFloat spends
// most of a line's decode time re-reading such tokens.
func decimalFloat(n *num) (float64, bool) {
	if n.exp || n.digits > 19 {
		return 0, false
	}
	var f float64
	switch {
	case n.m == 0:
	case n.m <= 1<<53:
		// Both operands are exact, so the division rounds once.
		f = float64(n.m) / float64pow10[n.frac]
	default:
		f = divPow10(n.m, n.frac)
	}
	if n.neg {
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
