package opt

import (
	"math"
	"strconv"
)

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// ParseDouble converts a value to a number as an untyped atomic is cast to
// xs:double: XML white space (#x20 #x9 #xD #xA) around it is ignored, and
// what is left is digits with an optional sign, fraction and exponent, or
// INF, -INF or NaN. Anything else is not a number: NaN with ok=false. Go's
// float syntax is wider (hexadecimal mantissas, underscores, "inf", Unicode
// white space), so strconv.ParseFloat sees only what this has accepted.
func ParseDouble[T ~string | ~[]byte](s T) (f float64, ok bool) {
	for len(s) > 0 && isXMLSpace(s[0]) {
		s = s[1:]
	}
	for len(s) > 0 && isXMLSpace(s[len(s)-1]) {
		s = s[:len(s)-1]
	}
	switch {
	case string(s) == "INF":
		return math.Inf(1), true
	case string(s) == "-INF":
		return math.Inf(-1), true
	case string(s) == "NaN":
		return math.NaN(), true
	}
	i, neg := 0, false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		i, neg = 1, s[0] == '-'
	}
	// The digits, as a mantissa and a power of ten while the mantissa is
	// exact in a float64.
	var mant uint64
	exp, exact, digits, dot := 0, true, false, false
	for ; i < len(s); i++ {
		c := s[i]
		if c == '.' && !dot {
			dot = true
			continue
		}
		if c < '0' || c > '9' {
			break
		}
		digits = true
		switch {
		case mant < (1<<53)/10:
			mant = mant*10 + uint64(c-'0')
			if dot {
				exp--
			}
		case !dot:
			exact = false
			exp++
		default:
			exact = false
		}
	}
	if !digits {
		return math.NaN(), false
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		eneg := i < len(s) && s[i] == '-'
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		e, start := 0, i
		for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
			if e < 1<<20 {
				e = e*10 + int(s[i]-'0')
			}
		}
		if i == start {
			return math.NaN(), false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if i != len(s) {
		return math.NaN(), false
	}
	if exact && -len(pow10) < exp && exp < len(pow10) {
		// Both factors are exact, so one rounding gives the nearest double.
		if f = float64(mant); exp < 0 {
			f /= pow10[-exp]
		} else {
			f *= pow10[exp]
		}
		if neg {
			f = -f
		}
		return f, true
	}
	f, err := strconv.ParseFloat(string(s), 64)
	if err != nil && err.(*strconv.NumError).Err != strconv.ErrRange {
		return math.NaN(), false
	}
	return f, true
}

func isXMLSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }
