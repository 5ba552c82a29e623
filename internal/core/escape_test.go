package core

import (
	"bytes"
	"encoding/xml"
	"testing"
)

// FuzzEscapeText holds EscapeText to encoding/xml.EscapeText byte for byte.
// The seeds in testdata/fuzz cover the markup characters, the white-space
// controls, the other C0 controls, U+FFFE/U+FFFF, UTF-8-encoded surrogates,
// truncated multi-byte runs and 4-byte runes.
func FuzzEscapeText(f *testing.F) {
	f.Fuzz(func(t *testing.T, s []byte) {
		var got, want bytes.Buffer
		if err := EscapeText(&got, s); err != nil {
			t.Fatal(err)
		}
		if err := xml.EscapeText(&want, s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("EscapeText(%q) = %q, encoding/xml writes %q", s, got.Bytes(), want.Bytes())
		}
	})
}
