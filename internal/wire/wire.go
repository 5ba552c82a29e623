// Package wire defines the client-server wire protocol: a small
// length-prefixed message format on TCP. Control messages (queries,
// transaction verbs, runtime tuning) are JSON payloads; the replication
// stream negotiated by MsgReplicate switches the connection to raw binary
// frames carrying seed files and write-ahead-log bytes.
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
)

// Message types (client → server). 10 and 17 are retired (they tuned the
// readahead prefetcher and the resident mode); a server answers them as
// unknown.
const (
	MsgHello      = 1
	MsgBegin      = 2
	MsgExecute    = 3
	MsgCommit     = 4
	MsgRollback   = 5
	MsgQuit       = 6
	MsgMetrics    = 7
	MsgSlowLog    = 8
	MsgWorkers    = 9
	MsgReplicate  = 11 // switch the connection to a replication stream
	MsgReplStatus = 12 // report replication topology and lag
	MsgPromote    = 13 // promote a replica to a writable primary
	MsgSessions   = 14 // list live sessions with per-session accounting
	MsgKill       = 15 // cancel another session's in-flight statement
	MsgCluster    = 16 // merged topology: local sessions + per-replica lag
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

// maxMessage bounds a single protocol message or frame.
const maxMessage = 64 << 20

// ErrTooLarge reports a framed message whose declared length exceeds the
// protocol limit. The server answers it with a protocol error before closing
// the connection; everything after the oversized header is unparseable.
var ErrTooLarge = errors.New("wire: message exceeds size limit")

// Request is a client message payload.
type Request struct {
	ReadOnly bool   `json:"readonly,omitempty"` // MsgBegin
	Query    string `json:"query,omitempty"`    // MsgExecute

	// MsgSlowLog: N bounds how many retained slow traces to return (0 =
	// all); when SetThreshold is set, the server first updates the
	// slow-query threshold to ThresholdNs (0 disables the slow log).
	N            int   `json:"n,omitempty"`
	ThresholdNs  int64 `json:"threshold_ns,omitempty"`
	SetThreshold bool  `json:"set_threshold,omitempty"`

	// MsgWorkers: when SetWorkers is set, the server updates the intra-query
	// parallelism cap to Workers (≤ 0 restores the GOMAXPROCS default); the
	// response always reports the effective worker budget.
	Workers    int  `json:"workers,omitempty"`
	SetWorkers bool `json:"set_workers,omitempty"`

	// MsgReplicate: the joining replica asks for the stream to start at
	// FromLSN; with NeedSeed it requests a hot-backup seed transfer first
	// (FromLSN is then ignored — the stream starts at the backup's durable
	// LSN, reported in the Handshake).
	FromLSN  uint64 `json:"from_lsn,omitempty"`
	NeedSeed bool   `json:"need_seed,omitempty"`

	// MsgKill: cancel the target session's in-flight statement. When
	// KillStatement is non-zero the kill only lands if that statement (by
	// per-session ordinal, as reported by SESSIONS) is still the one
	// running — a fence against killing an innocent successor.
	KillSession   uint64 `json:"kill_session,omitempty"`
	KillStatement uint64 `json:"kill_statement,omitempty"`
}

// Response is a server message payload.
type Response struct {
	Message string `json:"message,omitempty"`
	Data    string `json:"data,omitempty"`
	Updated int    `json:"updated,omitempty"`
	Error   string `json:"error,omitempty"`
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

// WriteMsg frames and writes one JSON message.
func WriteMsg(w io.Writer, typ byte, payload any) error {
	body, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	return WriteFrame(w, typ, body)
}

// ReadMsg reads one framed JSON message.
func ReadMsg(r io.Reader, payload any) (byte, error) {
	typ, body, err := ReadFrame(r)
	if err != nil {
		return 0, err
	}
	if payload != nil {
		if err := json.Unmarshal(body, payload); err != nil {
			return 0, err
		}
	}
	return typ, nil
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

// ReadFrame reads one frame and returns its type and raw payload.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxMessage {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return hdr[4], body, nil
}
