package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// FuzzReadResponse feeds ReadResponse an arbitrary payload and round-trips a
// response built from the other arguments. The seeds in testdata/fuzz cover
// empty fields, field lengths past the frame, overlong uvarints, non-minimal
// lengths, and Data with NUL bytes and invalid UTF-8.
func FuzzReadResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte, updated uint32, message, errText string, data []byte) {
		// Arbitrary bytes never panic. A field the frame cannot hold is an
		// error, so whatever is accepted fits in the payload, and encodes
		// back to a response that decodes the same.
		var frame bytes.Buffer
		if err := WriteFrame(&frame, MsgResult, payload); err != nil {
			t.Fatal(err)
		}
		var got Response
		if typ, err := ReadResponse(&frame, &got); err == nil {
			if typ != MsgResult {
				t.Fatalf("type = %d, want %d", typ, MsgResult)
			}
			if n := len(got.Message) + len(got.Error) + len(got.Data); n > len(payload) {
				t.Fatalf("decoded %d bytes of fields from a %d-byte payload", n, len(payload))
			}
			roundTrip(t, &got)
		} else if !errors.Is(err, errMalformed) {
			t.Fatalf("payload %q: %v, want a malformed-response error", payload, err)
		}

		roundTrip(t, &Response{Updated: int(updated), Message: message, Error: errText, Data: data})
	})
}

// roundTrip writes want and reads it back: the frame's length is what the
// header says, and every field comes back as written.
func roundTrip(t *testing.T, want *Response) {
	t.Helper()
	var frame bytes.Buffer
	if err := WriteResponse(&frame, MsgOK, want); err != nil {
		t.Fatal(err)
	}
	if n := binary.LittleEndian.Uint32(frame.Bytes()); int(n) != frame.Len()-5 {
		t.Fatalf("header says %d payload bytes, frame carries %d", n, frame.Len()-5)
	}
	var got Response
	typ, err := ReadResponse(&frame, &got)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgOK || got.Updated != want.Updated || got.Message != want.Message ||
		got.Error != want.Error || !bytes.Equal(got.Data, want.Data) {
		t.Fatalf("round trip: got type %d %+v, want %+v", typ, got, *want)
	}
	if frame.Len() != 0 {
		t.Fatalf("%d bytes left unread after the frame", frame.Len())
	}
}

// TestWriteResponseRefusesOversize checks that a response over the frame
// limit is refused before any byte is written, so the stream stays in step.
func TestWriteResponseRefusesOversize(t *testing.T) {
	var w bytes.Buffer
	err := WriteResponse(&w, MsgResult, &Response{Data: make([]byte, MaxMessage-2)})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if w.Len() != 0 {
		t.Fatalf("%d bytes written for a refused response", w.Len())
	}
}

// TestReadFrameAllocatesAsBytesArrive: a header that declares MaxMessage and
// is followed by nothing allocates one read step, not 64 MiB, and reports
// the truncation; a frame of one step is one allocation of its exact size,
// and a larger one still arrives whole.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	header := func(n int) []byte {
		h := make([]byte, 5)
		binary.LittleEndian.PutUint32(h, uint32(n))
		h[4] = MsgExecute
		return h
	}
	lone := header(MaxMessage)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadFrame(bytes.NewReader(lone))
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("header of %d bytes then EOF: %v, want io.ErrUnexpectedEOF", MaxMessage, err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("header of %d bytes then EOF allocated %d bytes", MaxMessage, d)
	}

	// The header's own allocation is measured on an empty frame.
	var body []byte
	allocsOf := func(frame []byte) float64 {
		r := bytes.NewReader(frame)
		return testing.AllocsPerRun(10, func() {
			r.Reset(frame)
			if _, body, err = ReadFrame(r); err != nil {
				t.Fatal(err)
			}
		})
	}
	empty := allocsOf(header(0))
	payload := bytes.Repeat([]byte("x"), frameStep)
	allocs := allocsOf(append(header(len(payload)), payload...))
	if allocs != empty+1 || len(body) != frameStep || cap(body) != frameStep || !bytes.Equal(body, payload) {
		t.Fatalf("a one-step frame: %.1f allocations (%.1f for an empty one), len %d cap %d, want one more allocation of %d bytes",
			allocs, empty, len(body), cap(body), frameStep)
	}

	payload = bytes.Repeat([]byte("0123456789"), (3*frameStep+17)/10)
	typ, body, err := ReadFrame(bytes.NewReader(append(header(len(payload)), payload...)))
	if err != nil || typ != MsgExecute || !bytes.Equal(body, payload) {
		t.Fatalf("a %d-byte frame: type %d, %d bytes, %v", len(payload), typ, len(body), err)
	}
}
