// Package server implements the process architecture of the paper's
// Figure 1: the governor keeps track of all sessions and transactions
// running in the system; a connection component encapsulates each client
// session; and a transaction component wraps every database transaction a
// session runs. Clients talk to the server over a small length-prefixed
// message protocol on TCP.
//
// The frame format itself lives in package wire (shared with the
// replication subsystem and the Go driver); this file re-exports it so
// existing callers keep working against the server package.
package server

import (
	"io"

	"sedna/internal/wire"
)

// Message types (client → server).
const (
	MsgHello      = wire.MsgHello
	MsgBegin      = wire.MsgBegin
	MsgExecute    = wire.MsgExecute
	MsgCommit     = wire.MsgCommit
	MsgRollback   = wire.MsgRollback
	MsgQuit       = wire.MsgQuit
	MsgMetrics    = wire.MsgMetrics
	MsgSlowLog    = wire.MsgSlowLog
	MsgWorkers    = wire.MsgWorkers
	MsgReplicate  = wire.MsgReplicate
	MsgReplStatus = wire.MsgReplStatus
	MsgPromote    = wire.MsgPromote
	MsgSessions   = wire.MsgSessions
	MsgKill       = wire.MsgKill
	MsgCluster    = wire.MsgCluster
)

// Message types (server → client).
const (
	MsgOK     = wire.MsgOK
	MsgResult = wire.MsgResult
	MsgError  = wire.MsgError
)

// ErrTooLarge reports a framed message whose declared length exceeds the
// protocol limit.
var ErrTooLarge = wire.ErrTooLarge

// Request is a client message payload.
type Request = wire.Request

// Response is a server message payload.
type Response = wire.Response

// WriteMsg frames and writes one message.
func WriteMsg(w io.Writer, typ byte, payload any) error {
	return wire.WriteMsg(w, typ, payload)
}

// ReadMsg reads one framed message.
func ReadMsg(r io.Reader, payload any) (byte, error) {
	return wire.ReadMsg(r, payload)
}
