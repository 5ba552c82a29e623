// Package client is the Go driver for a sedna-go server: it speaks the
// wire protocol of the connection component (the paper's Figure 1
// client-server path) over TCP.
package client

import (
	"errors"
	"fmt"
	"net"

	"sedna/internal/server"
	"sedna/internal/wire"
)

// Conn is a client session with a sedna-go server.
type Conn struct {
	c net.Conn
}

// Result is the outcome of one executed statement.
type Result struct {
	// Data is the serialized result sequence of a query.
	Data string
	// Updated is the number of nodes an update statement affected.
	Updated int
	// Message is the acknowledgement of DDL and transaction commands.
	Message string
}

// Connect opens a session with the server at addr.
func Connect(addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: connect: %w", err)
	}
	conn := &Conn{c: c}
	if _, err := conn.roundTrip(server.MsgHello, server.Request{}); err != nil {
		c.Close()
		return nil, err
	}
	return conn, nil
}

func (c *Conn) roundTrip(typ byte, req server.Request) (*wire.Response, error) {
	if err := wire.WriteRequest(c.c, typ, &req); err != nil {
		return nil, fmt.Errorf("client: send: %w", err)
	}
	var resp wire.Response
	rt, err := wire.ReadResponse(c.c, &resp)
	if err != nil {
		return nil, fmt.Errorf("client: receive: %w", err)
	}
	if rt == server.MsgError {
		return nil, errors.New(resp.Error)
	}
	return &resp, nil
}

// Execute runs one statement (query, update or DDL). Outside an explicit
// transaction the server auto-commits.
func (c *Conn) Execute(q string) (*Result, error) {
	resp, err := c.roundTrip(server.MsgExecute, server.Request{Query: q})
	if err != nil {
		return nil, err
	}
	return &Result{Data: string(resp.Data), Updated: resp.Updated, Message: resp.Message}, nil
}

// Kill cancels whatever statement the target session is executing right
// now. The statement fails over there with a "killed" error and its
// transaction is cleanly aborted; the target session stays connected.
func (c *Conn) Kill(sessionID uint64) error {
	_, err := c.roundTrip(server.MsgKill, server.Request{KillSession: sessionID})
	return err
}

// KillStatement cancels one specific statement (by the per-session ordinal
// doc("$sessions") reports); if that statement already finished, the kill
// fails instead of hitting its successor.
func (c *Conn) KillStatement(sessionID, ordinal uint64) error {
	_, err := c.roundTrip(server.MsgKill, server.Request{KillSession: sessionID, KillStatement: ordinal})
	return err
}

// Promote detaches a replica server from its primary and makes it writable.
func (c *Conn) Promote() (string, error) {
	resp, err := c.roundTrip(server.MsgPromote, server.Request{})
	if err != nil {
		return "", err
	}
	return resp.Message, nil
}

// Begin starts an explicit transaction on the session.
func (c *Conn) Begin(readonly bool) error {
	_, err := c.roundTrip(server.MsgBegin, server.Request{ReadOnly: readonly})
	return err
}

// Commit commits the open transaction.
func (c *Conn) Commit() error {
	_, err := c.roundTrip(server.MsgCommit, server.Request{})
	return err
}

// Rollback aborts the open transaction.
func (c *Conn) Rollback() error {
	_, err := c.roundTrip(server.MsgRollback, server.Request{})
	return err
}

// Close ends the session.
func (c *Conn) Close() error {
	_, _ = c.roundTrip(server.MsgQuit, server.Request{})
	return c.c.Close()
}
