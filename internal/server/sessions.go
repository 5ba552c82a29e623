package server

// The session & statement registry: the governor's live view of who is
// connected, what each session has consumed, and which statement each one is
// executing right now (paper §3 — the governor "keeps track of all sessions
// and transactions running in the system"). Per-session resource accounting
// accumulates engine-wide counter deltas over each statement's window — the
// same technique the tracer uses — so it costs a handful of atomic loads per
// statement, not per event. Under concurrent sessions a delta can attribute
// a neighbour's page fault to the wrong session; the numbers are operator
// telemetry, not billing.

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"sedna/internal/query"
	"sedna/internal/trace"
	"sedna/internal/wire"
)

// SessionStats is one session's cumulative resource accounting.
type SessionStats struct {
	Statements   uint64 `json:"statements"`
	Errors       uint64 `json:"errors,omitempty"`
	Nodes        uint64 `json:"nodes,omitempty"`         // items/updates produced
	BufferFaults uint64 `json:"buffer_faults,omitempty"` // page faults over statement windows
	PagesRead    uint64 `json:"pages_read,omitempty"`    // disk reads
	PagesWritten uint64 `json:"pages_written,omitempty"` // disk writes
	WALBytes     uint64 `json:"wal_bytes,omitempty"`
	LockWaitNs   int64  `json:"lock_wait_ns,omitempty"`
	ExecNs       int64  `json:"exec_ns,omitempty"` // cumulative statement wall time
}

// add accumulates one statement window's deltas.
func (st *SessionStats) add(d SessionStats) {
	st.Statements += d.Statements
	st.Errors += d.Errors
	st.Nodes += d.Nodes
	st.BufferFaults += d.BufferFaults
	st.PagesRead += d.PagesRead
	st.PagesWritten += d.PagesWritten
	st.WALBytes += d.WALBytes
	st.LockWaitNs += d.LockWaitNs
	st.ExecNs += d.ExecNs
}

// StatementInfo is the live view of a session's in-flight statement.
type StatementInfo struct {
	Ordinal     uint64      `json:"ordinal"` // per-session statement number
	Query       string      `json:"query"`
	StartUnixNs int64       `json:"start_unix_ns"`
	ElapsedNs   int64       `json:"elapsed_ns"`
	Spans       *trace.Span `json:"spans,omitempty"` // live span-tree snapshot
}

// SessionInfo is the introspection view of one session.
type SessionInfo struct {
	ID              uint64         `json:"id"`
	Client          string         `json:"client,omitempty"`
	ConnectedUnixNs int64          `json:"connected_unix_ns"`
	TxOpen          bool           `json:"tx_open,omitempty"`
	Stats           SessionStats   `json:"stats"`
	Statement       *StatementInfo `json:"statement,omitempty"`
}

// stmtState registers one executing statement with its session: the text,
// the start time, the execution context carrying the cancellation token, and
// the trace root for live span snapshots.
type stmtState struct {
	ord   uint64
	query string
	start time.Time
	ctx   *query.ExecCtx
	root  *trace.Span
}

// statsBase is the engine-wide counter baseline captured at statement start;
// the statement's consumption is the delta at finish.
type statsBase struct {
	faults, reads, writes, walBytes uint64
	lockWaitNs                      int64
}

func (s *Session) statsBaseline() statsBase {
	m := &s.gov.met
	return statsBase{
		faults:     m.faults.Value(),
		reads:      m.diskReads.Value(),
		writes:     m.diskWrites.Value(),
		walBytes:   m.walBytes.Value(),
		lockWaitNs: m.lockWait.SumNs(),
	}
}

// beginStatement registers the in-flight statement and returns the counter
// baseline for its accounting window.
func (s *Session) beginStatement(src string, ctx *query.ExecCtx) statsBase {
	var root *trace.Span
	if tr := ctx.Trace(); tr != nil {
		tr.SetOrigin(s.id, s.client)
		root = tr.Root
	}
	s.curMu.Lock()
	s.stmtOrd++
	s.cur = &stmtState{
		ord:   s.stmtOrd,
		query: src,
		start: time.Now(),
		ctx:   ctx,
		root:  root,
	}
	s.curMu.Unlock()
	return s.statsBaseline()
}

// endStatement unregisters the statement and folds its window's deltas into
// the session's cumulative stats.
func (s *Session) endStatement(base statsBase, nodes int, execErr error) {
	s.curMu.Lock()
	start := s.cur.start
	s.cur = nil
	s.curMu.Unlock()
	now := s.statsBaseline()
	d := SessionStats{
		Statements:   1,
		Nodes:        uint64(nodes),
		BufferFaults: now.faults - base.faults,
		PagesRead:    now.reads - base.reads,
		PagesWritten: now.writes - base.writes,
		WALBytes:     now.walBytes - base.walBytes,
		LockWaitNs:   now.lockWaitNs - base.lockWaitNs,
		ExecNs:       time.Since(start).Nanoseconds(),
	}
	if execErr != nil {
		d.Errors = 1
	}
	s.statsMu.Lock()
	s.stats.add(d)
	s.statsMu.Unlock()
}

// Info renders the session for introspection, including a live deep-copied
// snapshot of the in-flight statement's span tree.
func (s *Session) Info() SessionInfo {
	info := SessionInfo{
		ID:              s.id,
		Client:          s.client,
		ConnectedUnixNs: s.connected.UnixNano(),
		TxOpen:          s.txOpen.Load(),
	}
	s.statsMu.Lock()
	info.Stats = s.stats
	s.statsMu.Unlock()
	s.curMu.Lock()
	cur := s.cur
	s.curMu.Unlock()
	if cur != nil {
		info.Statement = &StatementInfo{
			Ordinal:     cur.ord,
			Query:       cur.query,
			StartUnixNs: cur.start.UnixNano(),
			ElapsedNs:   time.Since(cur.start).Nanoseconds(),
			Spans:       cur.root.Snapshot(),
		}
	}
	return info
}

// kill cancels the session's in-flight statement. With wantOrd non-zero the
// kill only lands if that statement is still the one executing — the fence
// against a KILL racing normal completion and hitting an innocent successor.
func (s *Session) kill(wantOrd uint64) error {
	s.curMu.Lock()
	defer s.curMu.Unlock()
	if s.cur == nil {
		return fmt.Errorf("server: session %d is idle", s.id)
	}
	if wantOrd != 0 && s.cur.ord != wantOrd {
		return fmt.Errorf("server: session %d statement %d already finished", s.id, wantOrd)
	}
	s.cur.ctx.Kill()
	s.gov.met.kills.Inc()
	return nil
}

// SessionInfos returns the introspection view of every live session, by id.
func (g *Governor) SessionInfos() []SessionInfo {
	g.mu.Lock()
	sessions := make([]*Session, 0, len(g.sessions))
	for _, s := range g.sessions {
		sessions = append(sessions, s)
	}
	g.mu.Unlock()
	// Snapshot outside the governor lock: Info takes per-session locks and
	// deep-copies span trees.
	infos := make([]SessionInfo, 0, len(sessions))
	for _, s := range sessions {
		infos = append(infos, s.Info())
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos
}

// Kill cancels the in-flight statement of the target session (stmtOrd 0 =
// whatever is running now, otherwise that specific per-session ordinal).
func (g *Governor) Kill(sessionID, stmtOrd uint64) error {
	g.mu.Lock()
	target := g.sessions[sessionID]
	g.mu.Unlock()
	if target == nil {
		return fmt.Errorf("server: no session %d", sessionID)
	}
	return target.kill(stmtOrd)
}

// killResp serves a MsgKill request.
func (g *Governor) killResp(req *Request) (*wire.Response, error) {
	if req.KillSession == 0 {
		return nil, errors.New("server: KILL needs a session id")
	}
	if err := g.Kill(req.KillSession, req.KillStatement); err != nil {
		return nil, err
	}
	return &wire.Response{Message: fmt.Sprintf("killed: session %d", req.KillSession)}, nil
}
