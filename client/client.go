// Package client is the Go driver for a sedna-go server: it speaks the
// wire protocol of the connection component (the paper's Figure 1
// client-server path) over TCP.
package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"sedna/internal/repl"
	"sedna/internal/server"
	"sedna/internal/trace"
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

// Metrics fetches the server's metrics registry as a plain-text snapshot.
func (c *Conn) Metrics() (string, error) {
	resp, err := c.roundTrip(server.MsgMetrics, server.Request{})
	if err != nil {
		return "", err
	}
	return string(resp.Data), nil
}

// SlowLog fetches the server's retained slow-query traces, newest first
// (n > 0 bounds the count, 0 = all).
func (c *Conn) SlowLog(n int) ([]*trace.Trace, error) {
	resp, err := c.roundTrip(server.MsgSlowLog, server.Request{N: n})
	if err != nil {
		return nil, err
	}
	var traces []*trace.Trace
	if err := json.Unmarshal(resp.Data, &traces); err != nil {
		return nil, fmt.Errorf("client: slowlog: %w", err)
	}
	return traces, nil
}

// SetSlowThreshold retunes the server's slow-query threshold at runtime
// (0 disables the slow log).
func (c *Conn) SetSlowThreshold(d time.Duration) error {
	_, err := c.roundTrip(server.MsgSlowLog, server.Request{
		SetThreshold: true,
		ThresholdNs:  d.Nanoseconds(),
	})
	return err
}

// ReplStatus fetches the server's replication topology: its role, every
// connected downstream replica with its lag in log bytes, and — on a
// replica — the state of its own stream from the primary.
func (c *Conn) ReplStatus() (*repl.Topology, error) {
	resp, err := c.roundTrip(server.MsgReplStatus, server.Request{})
	if err != nil {
		return nil, err
	}
	var t repl.Topology
	if err := json.Unmarshal(resp.Data, &t); err != nil {
		return nil, fmt.Errorf("client: replstatus: %w", err)
	}
	return &t, nil
}

// Sessions fetches the server's live session registry: every connected
// session with its cumulative resource accounting and, when one is
// executing, its in-flight statement (query text, elapsed time, live span
// tree).
func (c *Conn) Sessions() ([]server.SessionInfo, error) {
	resp, err := c.roundTrip(server.MsgSessions, server.Request{})
	if err != nil {
		return nil, err
	}
	var infos []server.SessionInfo
	if err := json.Unmarshal(resp.Data, &infos); err != nil {
		return nil, fmt.Errorf("client: sessions: %w", err)
	}
	return infos, nil
}

// Kill cancels whatever statement the target session is executing right
// now. The statement fails over there with a "killed" error and its
// transaction is cleanly aborted; the target session stays connected.
func (c *Conn) Kill(sessionID uint64) error {
	_, err := c.roundTrip(server.MsgKill, server.Request{KillSession: sessionID})
	return err
}

// KillStatement cancels one specific statement (by the per-session ordinal
// SESSIONS reports); if that statement already finished, the kill fails
// instead of hitting its successor.
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
