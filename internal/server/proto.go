// Package server implements the process architecture of the paper's
// Figure 1: the governor keeps track of all sessions and transactions
// running in the system; a connection component encapsulates each client
// session; and a transaction component wraps every database transaction a
// session runs. Clients talk to the server over a small length-prefixed
// message protocol on TCP.
//
// The frame format itself lives in package wire (shared with the
// replication subsystem and the Go driver); this file re-exports its verbs
// and request type for callers of the server package.
package server

import "sedna/internal/wire"

// Message types (client → server).
const (
	MsgHello     = wire.MsgHello
	MsgBegin     = wire.MsgBegin
	MsgExecute   = wire.MsgExecute
	MsgCommit    = wire.MsgCommit
	MsgRollback  = wire.MsgRollback
	MsgQuit      = wire.MsgQuit
	MsgReplicate = wire.MsgReplicate
	MsgPromote   = wire.MsgPromote
	MsgKill      = wire.MsgKill
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
