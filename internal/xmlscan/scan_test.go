package xmlscan

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// oracle is the token stream encoding/xml (strict) hands a loader, one
// string per token, directives left out as the loaders leave them out, and
// the input offset at the end; err is non-nil if it rejects data.
func oracle(data []byte) (toks []string, n int64, err error) {
	d := xml.NewDecoder(bytes.NewReader(data))
	d.Strict = true
	for {
		tok, err := d.Token()
		if err == io.EOF {
			return toks, d.InputOffset(), nil
		}
		if err != nil {
			return nil, 0, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			e := fmt.Sprintf("start %q %q", t.Name.Space, t.Name.Local)
			for _, a := range t.Attr {
				e += fmt.Sprintf(" [%q %q %q]", a.Name.Space, a.Name.Local, a.Value)
			}
			toks = append(toks, e)
		case xml.EndElement:
			toks = append(toks, "end")
		case xml.CharData:
			toks = append(toks, fmt.Sprintf("text %q", []byte(t)))
		case xml.Comment:
			toks = append(toks, fmt.Sprintf("comment %q", []byte(t)))
		case xml.ProcInst:
			toks = append(toks, fmt.Sprintf("pi %q %q", t.Target, t.Inst))
		}
	}
}

// scanAll is oracle's stream from a Scanner.
func scanAll(s *Scanner) (toks []string, n int64, err error) {
	for {
		k, err := s.Next()
		if err == io.EOF {
			return toks, s.InputOffset(), nil
		}
		if err != nil {
			return nil, 0, err
		}
		switch k {
		case StartElement:
			e := fmt.Sprintf("start %q %q", s.Name().Space, s.Name().Local)
			for _, a := range s.Attrs() {
				e += fmt.Sprintf(" [%q %q %q]", a.Name.Space, a.Name.Local, a.Value)
			}
			toks = append(toks, e)
		case EndElement:
			toks = append(toks, "end")
		case CharData:
			toks = append(toks, fmt.Sprintf("text %q", s.Text()))
		case Comment:
			toks = append(toks, fmt.Sprintf("comment %q", s.Text()))
		case ProcInst:
			toks = append(toks, fmt.Sprintf("pi %q %q", s.Target(), s.Text()))
		}
	}
}

// newScannerSize is NewScanner with a read buffer of size bytes.
func newScannerSize(r io.Reader, size int) *Scanner {
	return &Scanner{r: r, buf: make([]byte, size)}
}

// scanners returns scanners over data that read it whole, one byte per Read,
// and through an 8-byte buffer that has to move and grow under every token.
func scanners(data []byte) map[string]*Scanner {
	return map[string]*Scanner{
		"whole":      NewScanner(bytes.NewReader(data)),
		"one-byte":   NewScanner(iotest.OneByteReader(bytes.NewReader(data))),
		"8-byte buf": newScannerSize(bytes.NewReader(data), 8),
	}
}

// checkAgainstOracle fails t unless every scanner over data agrees with
// encoding/xml: both reject, or both accept with the same tokens and offset.
func checkAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	want, wantN, wantErr := oracle(data)
	for how, s := range scanners(data) {
		got, gotN, gotErr := scanAll(s)
		switch {
		case wantErr != nil && gotErr != nil:
		case wantErr != nil:
			t.Fatalf("%s: %q: scanner accepts what encoding/xml rejects (%v):\n%s", how, data, wantErr, strings.Join(got, "\n"))
		case gotErr != nil:
			t.Fatalf("%s: %q: scanner rejects what encoding/xml accepts: %v\n%s", how, data, gotErr, strings.Join(want, "\n"))
		case strings.Join(got, "\n") != strings.Join(want, "\n"):
			t.Fatalf("%s: %q: tokens differ\nscanner:\n%s\nencoding/xml:\n%s", how, data, strings.Join(got, "\n"), strings.Join(want, "\n"))
		case gotN != wantN:
			t.Fatalf("%s: %q: input offset %d at the end, encoding/xml %d", how, data, gotN, wantN)
		}
	}
}

// FuzzScanXML feeds arbitrary bytes to the scanner and to encoding/xml
// (strict): both must reject, or both accept with the same token stream as
// the loaders consume it. The seeds in testdata/fuzz cover CDATA and
// comments between text runs, CR LF, entities in attribute values, nested
// and default namespaces, a DOCTYPE with an internal subset, an ISO-8859-1
// encoding declaration, invalid UTF-8, and tokens that straddle a refill of
// the read buffer.
func FuzzScanXML(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, data)
	})
}

// TestScanMatchesEncodingXML runs the rules the package comment states, and
// the corners of encoding/xml the fuzzer found worth pinning, through the
// oracle check; want says whether the input is well-formed.
func TestScanMatchesEncodingXML(t *testing.T) {
	for _, c := range []struct {
		in   string
		want bool
	}{
		{`<a>x<![CDATA[<y>]]>z<!--c-->w</a>`, true},
		{"<a>1\r\n2\r3\n\r</a>", true},
		{"<a b='1\r\n2'/>", true},
		{`<a b="&lt;&#65;&#x42;&quot;&apos;&amp;&gt;"/>`, true},
		{`<r xmlns="d" xmlns:p="u"><p:x p:a="1" b="2"><y xmlns="" q:z="3"/></p:x><xmlns/><xmlns:k/></r>`, true},
		{`<xml:a xml:lang="en" xmlns:xml="other"/>`, true},
		{`<a: b:="1" :c=":"/>`, true},
		{"<!DOCTYPE r [<!ENTITY e \"<x>\"> <!-- > --> ]><r/>", true},
		{`<!x'>'><r/>`, true},
		{`<a>t<!DOCTYPE q>u</a>`, true},
		{`<?xml version="1.0" encoding="ISO-8859-1"?><r/>`, false},
		{`<?xml version="1.0" encoding="utf-8"?><r/>`, true},
		{`<?xml version="1.1"?><r/>`, false},
		{"<a>\xff</a>", false},
		{"<a>\x01</a>", false},
		{"<a>&#1;</a>", false},
		{"<a>&#xD800;</a>", true},
		{"<a>&#xFFFE;</a>", false},
		{"<a>&#x110000;</a>", false},
		{"<a>&#0000000000000000000065;</a>", true},
		{"<a>&#X41;</a>", false},
		{"<a>&nbsp;</a>", false},
		{"<a>&amp</a>", false},
		{"<a>]]></a>", false},
		{"<a b=']]>'/>", true},
		{"<a b='<'/>", false},
		{`<a b="1"c="2"/>`, true},
		{`<a b="1" b="2"/>`, true},
		{`<a b=1/>`, false},
		{`<a b/>`, false},
		{`<a></b>`, false},
		{`<p:a xmlns:p="u" xmlns:q="u"></q:a>`, false},
		{`<a>`, false},
		{`</a>`, false},
		{`<a:b:c/>`, false},
		{`<1a/>`, false},
		{"<a\xc3\xa9/>", true},
		{"<a\xff/>", false},
		{`<!-- a - b -- c -->`, false},
		{`<!----><!---->`, true},
		{"<!--\xff\x01-->", true},
		{`<?target?><?t  data ?>`, true},
		{`<?t"x"?>`, true},
		{`<![CDATA[]]>`, true},
		{`<![CDATA[x`, false},
		{`<![cdata[x]]>`, false},
		{"text at the top <a/> and more", true},
		{"", true},
		{"\ufeff<a/>", true},
		{"<a> </a>", true},
	} {
		_, _, err := oracle([]byte(c.in))
		if (err == nil) != c.want {
			t.Fatalf("%q: encoding/xml error %v, the case expects well-formed = %v", c.in, err, c.want)
		}
		checkAgainstOracle(t, []byte(c.in))
	}
}

// TestNameTablesMatchEncodingXML checks every non-ASCII rune of the Basic
// Multilingual Plane and a sample above it, as the first and as a later
// character of an element name, against encoding/xml, and every ASCII byte
// in both places through the whole scanner.
func TestNameTablesMatchEncodingXML(t *testing.T) {
	ok := func(name string) bool {
		_, _, err := oracle([]byte("<" + name + "/>"))
		return err == nil
	}
	for r := rune(0x80); r <= 0x1FFFF; r++ {
		if r >= 0x10000 && r%97 != 0 {
			continue
		}
		for _, name := range []string{string(r), "a" + string(r)} {
			if got, want := isName([]byte(name)), ok(name); got != want {
				t.Fatalf("isName(%q) = %v, encoding/xml accepts it: %v", name, got, want)
			}
		}
	}
	for c := 0; c < 0x80; c++ {
		checkAgainstOracle(t, []byte("<"+string(rune(c))+"/>"))
		checkAgainstOracle(t, []byte("<a"+string(rune(c))+"/>"))
	}
}

// TestTokensStraddleRefills scans a document whose tokens are larger than
// the default read buffer, so the buffer both moves and grows mid-token.
func TestTokensStraddleRefills(t *testing.T) {
	var b strings.Builder
	b.WriteString(`<r a="` + strings.Repeat("v&amp;", 20000) + `">`)
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&b, "<i n=\"%d\">é\r\n%d&lt;</i><!--%d-->", i, i, i)
	}
	b.WriteString("<![CDATA[" + strings.Repeat("€]", 30000) + "]]>")
	b.WriteString(strings.Repeat("x", 3*initialBuffer) + "</r>")
	data := []byte(b.String())
	checkAgainstOracle(t, data)
}

// TestErrorPositions checks that a rejected input is reported at the byte
// offset and line encoding/xml reports, for the errors a loader test names.
func TestErrorPositions(t *testing.T) {
	for _, in := range []string{
		"<r>\n<a>x</a>\n<b>\n</wrong>\n</r>",
		"<r>\n<a>x &bogus; y</a>\n</r>",
		"<r>\n\n<a>\xff</a></r>",
	} {
		d := xml.NewDecoder(strings.NewReader(in))
		var wantErr error
		for wantErr == nil {
			_, wantErr = d.Token()
		}
		var want *xml.SyntaxError
		if !errors.As(wantErr, &want) {
			t.Fatalf("%q: encoding/xml error %v is not a syntax error", in, wantErr)
		}
		s := NewScanner(strings.NewReader(in))
		_, _, err := scanAll(s)
		var got *SyntaxError
		if !errors.As(err, &got) {
			t.Fatalf("%q: scanner error %v is not a syntax error", in, err)
		}
		if got.Line != want.Line {
			t.Errorf("%q: line %d, encoding/xml %d", in, got.Line, want.Line)
		}
		// encoding/xml checks a text's encoding only once the text has
		// ended, so for the invalid byte only the line is compared.
		if got.Offset != d.InputOffset() && !strings.Contains(in, "\xff") {
			t.Errorf("%q: offset %d, encoding/xml %d", in, got.Offset, d.InputOffset())
		}
	}
}

// TestNoGarbagePerToken scans a document of many small elements with
// attributes, references and CR LF and bounds the allocations per token.
func TestNoGarbagePerToken(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "<item id=\"i%d\" k='a&amp;b'><name>n\r\n%d</name><!--c--></item>", i, i)
	}
	b.WriteString("</r>")
	data := b.String()
	tokens := 0
	allocs := testing.AllocsPerRun(5, func() {
		s := NewScanner(strings.NewReader(data))
		tokens = 0
		for {
			_, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			tokens++
		}
	})
	if per := allocs / float64(tokens); per > 0.01 {
		t.Fatalf("%.0f allocations over %d tokens (%.3f per token)", allocs, tokens, per)
	}
}

// benchDoc is an auction-like document of small elements, attributes and
// short text, the shape the loaders spend their time on.
var benchDoc = func() []byte {
	var b strings.Builder
	b.WriteString("<site><people>")
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&b, "\n  <person id=\"person%d\"><name>Name %d</name><emailaddress>mailto:p%d@example.com</emailaddress>"+
			"<profile income=\"%d.50\"><interest category=\"c%d\"/><age>%d</age></profile></person>", i, i, i, 1000+i, i%30, 20+i%50)
	}
	b.WriteString("</people></site>")
	return []byte(b.String())
}()

func BenchmarkScan(b *testing.B) {
	b.SetBytes(int64(len(benchDoc)))
	for i := 0; i < b.N; i++ {
		s := NewScanner(bytes.NewReader(benchDoc))
		for {
			if _, err := s.Next(); err != nil {
				if err != io.EOF {
					b.Fatal(err)
				}
				break
			}
		}
	}
}

func BenchmarkEncodingXML(b *testing.B) {
	b.SetBytes(int64(len(benchDoc)))
	for i := 0; i < b.N; i++ {
		d := xml.NewDecoder(bytes.NewReader(benchDoc))
		for {
			if _, err := d.Token(); err != nil {
				if err != io.EOF {
					b.Fatal(err)
				}
				break
			}
		}
	}
}
