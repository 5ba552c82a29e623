package opt

import (
	"math"
	"testing"
)

// TestParseDouble holds ParseDouble to xs:double's lexical space: XML white
// space around it is ignored, and Go float syntax beyond it is not a number.
func TestParseDouble(t *testing.T) {
	for _, c := range []struct {
		in   string
		want float64 // NaN: not a number
	}{
		{"10", 10}, {" 20 ", 20}, {"\t30\r\n", 30}, {"+7", 7}, {"-2.5", -2.5},
		{".5", 0.5}, {"5.", 5}, {"1e2", 100}, {"1E-2", 0.01}, {"-0", 0},
		{"0.1", 0.1}, {"123456789012345678901234567890", 1.2345678901234568e29},
		{"1e400", math.Inf(1)}, {"1e-400", 0}, {"INF", math.Inf(1)}, {"-INF", math.Inf(-1)},
		{"NaN", math.NaN()}, {"", math.NaN()}, {" ", math.NaN()}, {".", math.NaN()},
		{"0x1p4", math.NaN()}, {"inf", math.NaN()}, {"infinity", math.NaN()},
		{"nan", math.NaN()}, {"+INF", math.NaN()}, {"1_000", math.NaN()},
		{"\u00a012", math.NaN()}, {"12\u2003", math.NaN()}, {"1e", math.NaN()},
		{"1e+", math.NaN()}, {"1.2.3", math.NaN()}, {"--1", math.NaN()}, {"1 2", math.NaN()},
	} {
		got, ok := ParseDouble(c.in)
		if bytesGot, _ := ParseDouble([]byte(c.in)); bytesGot != got && !math.IsNaN(got) {
			t.Errorf("ParseDouble(%q): %v as a string, %v as bytes", c.in, got, bytesGot)
		}
		if math.IsNaN(c.want) {
			if !math.IsNaN(got) || ok && c.in != "NaN" {
				t.Errorf("ParseDouble(%q) = %v, %v; want NaN", c.in, got, ok)
			}
			continue
		}
		if got != c.want || !ok || math.Signbit(got) != math.Signbit(c.want) && c.in != "-0" {
			t.Errorf("ParseDouble(%q) = %v, %v; want %v", c.in, got, ok, c.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { ParseDouble([]byte(" 1995 ")) }); n != 0 {
		t.Errorf("ParseDouble of bytes allocates %.0f times", n)
	}
}
