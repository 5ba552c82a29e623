// Package wire defines the client-server wire protocol: a small
// length-prefixed frame format on TCP. Every frame is a 5-byte header — the
// payload length as a little-endian uint32, then a type byte — followed by the
// payload. Requests (client → server) carry JSON; they are small. Responses
// carry the binary layout of Response (WriteResponse): a uvarint Updated, the
// length-prefixed Message and Error, then Data raw to the end of the frame, so
// a result leaves the server as the bytes its serializer wrote. The
// replication stream negotiated by MsgReplicate switches the connection to
// raw binary frames carrying seed files and write-ahead-log bytes.
//
// The package exists below both the server and the replication subsystem so
// that primaries (package server), replicas (package repl) and the Go driver
// (package client) share one frame format without import cycles.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// Message types (client → server). 7, 8, 9, 10, 12, 14, 16 and 17 are
// retired (METRICS, SLOWLOG, REPLSTATUS and SESSIONS became the system
// documents doc("$metrics"), doc("$slowlog"), doc("$replication") and
// doc("$sessions"); the others set the intra-query worker budget, tuned the
// readahead prefetcher, merged REPLSTATUS with SESSIONS and tuned the
// resident mode); a server answers them as unknown.
const (
	MsgHello     = 1
	MsgBegin     = 2
	MsgExecute   = 3
	MsgCommit    = 4
	MsgRollback  = 5
	MsgQuit      = 6
	MsgReplicate = 11 // switch the connection to a replication stream
	MsgPromote   = 13 // promote a replica to a writable primary
	MsgKill      = 15 // cancel another session's in-flight statement
)

// Message types (server → client).
const (
	MsgOK     = 64
	MsgResult = 65
	MsgError  = 66
)

// Replication stream frame types (after a MsgReplicate handshake). Frame
// payloads are raw bytes, not JSON, except where noted.
const (
	// FrameSeedFile announces one seed file; JSON payload SeedFile.
	FrameSeedFile = 0x50
	// FrameSeedData carries a chunk of the announced file's bytes.
	FrameSeedData = 0x51
	// FrameSeedDone ends the seed transfer (empty payload).
	FrameSeedDone = 0x52
	// FrameWAL carries log records: 8-byte little-endian start LSN followed
	// by record-aligned raw log bytes (primary → replica).
	FrameWAL = 0x53
	// FrameHeartbeat carries the primary's current durable LSN as 8 bytes
	// little-endian, sent when the stream is caught up (primary → replica).
	FrameHeartbeat = 0x54
	// FrameAck carries the replica's restart LSN as 8 bytes little-endian:
	// everything below it is applied (replica → primary).
	FrameAck = 0x55
)

// MaxMessage bounds a single protocol message or frame.
const MaxMessage = 64 << 20

// ErrTooLarge reports a message whose length exceeds the protocol limit. A
// server that reads such a header answers it with a protocol error before
// closing the connection, since everything after it is unparseable;
// WriteResponse refuses to send one and writes nothing.
var ErrTooLarge = errors.New("wire: message exceeds size limit")

// errMalformed reports a response payload whose fields do not fit its frame.
var errMalformed = errors.New("wire: malformed response")

// Request is a client message payload.
type Request struct {
	ReadOnly bool   `json:"readonly,omitempty"` // MsgBegin
	Query    string `json:"query,omitempty"`    // MsgExecute

	// MsgReplicate: the joining replica asks for the stream to start at
	// FromLSN; with NeedSeed it requests a hot-backup seed transfer first
	// (FromLSN is then ignored — the stream starts at the backup's durable
	// LSN, reported in the Handshake).
	FromLSN  uint64 `json:"from_lsn,omitempty"`
	NeedSeed bool   `json:"need_seed,omitempty"`

	// MsgKill: cancel the target session's in-flight statement. When
	// KillStatement is non-zero the kill only lands if that statement (by
	// per-session ordinal, as doc("$sessions") reports it) is still the one
	// running — a fence against killing an innocent successor.
	KillSession   uint64 `json:"kill_session,omitempty"`
	KillStatement uint64 `json:"kill_statement,omitempty"`
}

// Response is a server message payload. Its one encoding is binary (see
// WriteResponse); Data is the serialized result sequence of an executed
// statement, or the JSON Handshake that answers MsgReplicate.
type Response struct {
	Updated int
	Message string
	Error   string
	Data    []byte
}

// Handshake is the primary's JSON answer to MsgReplicate (in Response.Data),
// sent before the binary stream begins.
type Handshake struct {
	// Seed reports whether seed-file frames precede the WAL stream.
	Seed bool `json:"seed"`
	// StartLSN is the primary-log position the WAL stream begins at.
	StartLSN uint64 `json:"start_lsn"`
}

// SeedFile is the JSON payload of a FrameSeedFile frame.
type SeedFile struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
}

// WriteRequest frames and writes one JSON request.
func WriteRequest(w io.Writer, typ byte, req *Request) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return WriteFrame(w, typ, body)
}

// ReadRequest reads one framed JSON request.
func ReadRequest(r io.Reader, req *Request) (byte, error) {
	typ, body, err := ReadFrame(r)
	if err != nil {
		return 0, err
	}
	return typ, json.Unmarshal(body, req)
}

// WriteResponse frames and writes one response: a uvarint Updated, Message
// and Error each as a uvarint length and its bytes, then Data to the end of
// the frame. The header and the fixed fields go in the first write and Data
// in the second, straight from the caller's slice. A response whose payload
// would exceed MaxMessage is refused with ErrTooLarge before anything is
// written, so the stream stays in step.
func WriteResponse(w io.Writer, typ byte, r *Response) error {
	head := make([]byte, 5, 5+3*binary.MaxVarintLen64+len(r.Message)+len(r.Error))
	head = binary.AppendUvarint(head, uint64(r.Updated))
	head = binary.AppendUvarint(head, uint64(len(r.Message)))
	head = append(head, r.Message...)
	head = binary.AppendUvarint(head, uint64(len(r.Error)))
	head = append(head, r.Error...)
	size := len(head) - 5 + len(r.Data)
	if size > MaxMessage {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, size)
	}
	binary.LittleEndian.PutUint32(head[:4], uint32(size))
	head[4] = typ
	if _, err := w.Write(head); err != nil {
		return err
	}
	if len(r.Data) == 0 {
		return nil
	}
	_, err := w.Write(r.Data)
	return err
}

// ReadResponse reads one framed response into r. Data is the tail of the
// frame's own buffer: no copy is made past the read.
func ReadResponse(rd io.Reader, r *Response) (byte, error) {
	typ, body, err := ReadFrame(rd)
	if err != nil {
		return 0, err
	}
	return typ, r.decode(body)
}

func (r *Response) decode(b []byte) error {
	updated, n := binary.Uvarint(b)
	if n <= 0 || updated > math.MaxInt {
		return errMalformed
	}
	b = b[n:]
	msg, b, err := cutField(b)
	if err != nil {
		return err
	}
	errText, b, err := cutField(b)
	if err != nil {
		return err
	}
	*r = Response{Updated: int(updated), Message: msg, Error: errText}
	if len(b) > 0 {
		r.Data = b
	}
	return nil
}

// cutField splits a uvarint-length-prefixed string off b. A declared length
// beyond what b holds is an error: nothing is allocated from it.
func cutField(b []byte) (string, []byte, error) {
	size, n := binary.Uvarint(b)
	if n <= 0 || size > uint64(len(b)-n) {
		return "", nil, errMalformed
	}
	end := n + int(size)
	return string(b[n:end]), b[end:], nil
}

// WriteFrame writes one frame with a raw payload.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameStep bounds what ReadFrame allocates ahead of the bytes that arrive:
// a frame is read a step at a time, so a header that declares MaxMessage and
// is followed by nothing costs one step, not MaxMessage.
const frameStep = 256 << 10

// ReadFrame reads one frame and returns its type and raw payload. A payload
// of up to frameStep bytes takes one allocation of its exact size; a larger
// one grows as it arrives. A stream that ends inside the frame returns
// io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:4]))
	if n > MaxMessage {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	body := make([]byte, 0, min(n, frameStep))
	for len(body) < n {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(n-len(body), cap(body)))
		}
		m, err := io.ReadFull(r, body[len(body):min(n, cap(body))])
		body = body[:len(body)+m]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
	}
	return hdr[4], body, nil
}
