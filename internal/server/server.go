package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sedna/internal/core"
	"sedna/internal/metrics"
	"sedna/internal/query"
	"sedna/internal/repl"
	"sedna/internal/trace"
)

// Governor is the control center of the system (§3): it keeps track of the
// database and of every session and transaction currently running, and
// manages their lifecycle.
type Governor struct {
	db *core.Database

	// primary serves downstream replication streams (REPLICATE); replica,
	// when set, is the replication client this server fronts (set once at
	// startup, before any session runs).
	primary *repl.Primary
	replica *repl.Replica

	mu       sync.Mutex
	sessions map[uint64]*Session
	nextSess uint64

	met govMetrics
}

// govMetrics binds the server/governor counters in a metrics registry.
type govMetrics struct {
	sessOpened  *metrics.Counter
	sessClosed  *metrics.Counter
	sessActive  *metrics.Gauge
	txnsStarted *metrics.Counter
	commands    *metrics.Counter
	errors      *metrics.Counter
	kills       *metrics.Counter
	bytesIn     *metrics.Counter
	bytesOut    *metrics.Counter
}

func bindGovMetrics(reg *metrics.Registry) govMetrics {
	return govMetrics{
		sessOpened:  reg.Counter("server.sessions_opened"),
		sessClosed:  reg.Counter("server.sessions_closed"),
		sessActive:  reg.Gauge("server.sessions_active"),
		txnsStarted: reg.Counter("server.txns_started"),
		commands:    reg.Counter("server.commands"),
		errors:      reg.Counter("server.errors"),
		kills:       reg.Counter("server.kills"),
		bytesIn:     reg.Counter("server.bytes_in"),
		bytesOut:    reg.Counter("server.bytes_out"),
	}
}

// NewGovernor creates a governor over an open database; it reports into the
// database's metrics registry under the "server." family, which also gains
// the process-level build/uptime gauges both expositions serve.
func NewGovernor(db *core.Database) *Governor {
	reg := db.Metrics()
	metrics.RegisterBuildInfo(reg)
	metrics.RegisterUptime(reg, time.Now())
	return &Governor{
		db:       db,
		primary:  repl.NewPrimary(db),
		sessions: make(map[uint64]*Session),
		met:      bindGovMetrics(reg),
	}
}

// Primary returns the replication manager serving downstream replicas.
func (g *Governor) Primary() *repl.Primary { return g.primary }

// SetReplica attaches the replication client when this server fronts a
// replica database: REPLSTATUS then reports its stream state and PROMOTE
// detaches it, making the node writable. Must be called before serving.
func (g *Governor) SetReplica(r *repl.Replica) { g.replica = r }

// Metrics returns the registry shared by the governor and its database.
func (g *Governor) Metrics() *metrics.Registry { return g.db.Metrics() }

// Tracer returns the database's per-query tracer.
func (g *Governor) Tracer() *trace.Tracer { return g.db.Tracer() }

// DB returns the managed database.
func (g *Governor) DB() *core.Database { return g.db }

// SessionCount returns the number of registered sessions.
func (g *Governor) SessionCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.sessions)
}

// TxnsStarted returns how many transactions the governor has created.
func (g *Governor) TxnsStarted() uint64 { return g.met.txnsStarted.Value() }

func (g *Governor) register(s *Session) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nextSess++
	s.id = g.nextSess
	g.sessions[s.id] = s
	g.met.sessOpened.Inc()
	g.met.sessActive.Set(int64(len(g.sessions)))
}

func (g *Governor) unregister(s *Session) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.sessions[s.id]; ok {
		delete(g.sessions, s.id)
		g.met.sessClosed.Inc()
		g.met.sessActive.Set(int64(len(g.sessions)))
	}
}

// Session is the connection component: it encapsulates one client session
// and creates a transaction component per database transaction (§3). The
// lifecycle methods (Begin/Commit/Rollback/Execute/Close) run on the
// connection's goroutine only; Info and kill are called from other
// goroutines and touch only the locked/atomic fields.
type Session struct {
	id        uint64
	gov       *Governor
	client    string    // remote address, "" for embedded sessions
	connected time.Time // registration time
	tx        *core.Tx  // open explicit transaction, if any
	txOpen    atomic.Bool

	statsMu sync.Mutex
	stats   SessionStats

	curMu   sync.Mutex
	stmtOrd uint64     // per-session statement ordinal, counts from 1
	cur     *stmtState // in-flight statement, nil when idle
}

// NewSession registers a fresh session with the governor.
func (g *Governor) NewSession() *Session {
	return g.NewSessionFor("")
}

// NewSessionFor registers a fresh session carrying the client's remote
// address for introspection and slowlog attribution.
func (g *Governor) NewSessionFor(client string) *Session {
	s := &Session{gov: g, client: client, connected: time.Now()}
	g.register(s)
	return s
}

// Close rolls back any open transaction and unregisters the session.
func (s *Session) Close() {
	if s.tx != nil {
		s.tx.Rollback()
		s.tx = nil
		s.txOpen.Store(false)
	}
	s.gov.unregister(s)
}

// Begin starts an explicit transaction on the session.
func (s *Session) Begin(readonly bool) error {
	if s.tx != nil {
		return errors.New("server: transaction already open")
	}
	tx, err := s.beginTx(readonly)
	if err != nil {
		return err
	}
	s.tx = tx
	s.txOpen.Store(true)
	return nil
}

func (s *Session) beginTx(readonly bool) (*core.Tx, error) {
	s.gov.met.txnsStarted.Inc()
	if readonly {
		return s.gov.db.BeginReadOnly()
	}
	return s.gov.db.Begin()
}

// Commit commits the open transaction.
func (s *Session) Commit() error {
	if s.tx == nil {
		return errors.New("server: no open transaction")
	}
	err := s.tx.Commit()
	s.tx = nil
	s.txOpen.Store(false)
	return err
}

// Rollback aborts the open transaction.
func (s *Session) Rollback() error {
	if s.tx == nil {
		return errors.New("server: no open transaction")
	}
	err := s.tx.Rollback()
	s.tx = nil
	s.txOpen.Store(false)
	return err
}

// Execute runs one statement. Inside an explicit transaction it uses it;
// otherwise it runs in auto-commit mode, choosing a read-only snapshot
// transaction for queries and an update transaction for everything else.
func (s *Session) Execute(src string) (*Response, error) {
	parseStart := time.Now()
	st, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	parseNs := time.Since(parseStart).Nanoseconds()
	tx := s.tx
	auto := tx == nil
	if auto {
		tx, err = s.beginTx(st.ReadOnly())
		if err != nil {
			return nil, err
		}
	}
	// The session owns the statement's trace so an auto-commit (and its WAL
	// fsync) is captured inside it; FinishTrace is idempotent and runs after
	// the commit on the happy path.
	ctx := query.NewExecCtx(tx)
	ctx.StartTrace(st.Source)
	ctx.RecordParse(parseNs)
	defer ctx.FinishTrace()
	// Register the statement for introspection and KILL; every exit path
	// below unregisters it and settles the accounting window.
	base := s.beginStatement(st.Source, ctx)
	nodes := 0
	defer func() { s.endStatement(base, nodes, err) }()
	res, err := query.ExecuteStatement(ctx, st)
	if err == nil {
		var sb strings.Builder
		if serr := res.Serialize(&sb); serr != nil {
			err = serr
		} else {
			nodes = len(res.Items) + res.Updated
			if auto {
				if err = tx.Commit(); err != nil {
					return nil, err
				}
			}
			return &Response{Data: sb.String(), Updated: res.Updated, Message: res.Message}, nil
		}
	}
	if auto {
		tx.Rollback()
	} else if errors.Is(err, query.ErrKilled) {
		// A killed statement aborts its explicit transaction too: partial
		// update effects must not survive to a later COMMIT.
		s.Rollback()
	}
	return nil, err
}

// slowLog serves a MsgSlowLog request: optionally retune the slow-query
// threshold, then return retained slow traces (newest first) as JSON.
func (g *Governor) slowLog(req *Request) (*Response, error) {
	tr := g.db.Tracer()
	if req.SetThreshold {
		tr.SetSlowThreshold(time.Duration(req.ThresholdNs))
	}
	traces := tr.Slow()
	if req.N > 0 && len(traces) > req.N {
		traces = traces[:req.N]
	}
	b, err := json.Marshal(traces)
	if err != nil {
		return nil, err
	}
	return &Response{
		Data:    string(b),
		Message: fmt.Sprintf("threshold=%s entries=%d", time.Duration(tr.SlowThresholdNs()), len(traces)),
	}, nil
}

// workers serves a MsgWorkers request: optionally retune the intra-query
// parallelism cap (the runtime face of sednad -query-workers), then report
// the effective worker budget.
func (g *Governor) workers(req *Request) (*Response, error) {
	if req.SetWorkers {
		g.db.SetQueryWorkers(req.Workers)
	}
	n := g.db.QueryWorkers()
	return &Response{
		Data:    fmt.Sprint(n),
		Message: fmt.Sprintf("query workers=%d", n),
	}, nil
}

// replStatus serves a MsgReplStatus request: the node's role and lag-aware
// replica topology as JSON.
func (g *Governor) replStatus() (*Response, error) {
	t := repl.Topology{Role: "primary", Replicas: g.primary.Status()}
	if g.replica != nil {
		self := g.replica.Status()
		t.Self = &self
		if self.State != "promoted" {
			t.Role = "replica"
		}
	}
	b, err := json.Marshal(&t)
	if err != nil {
		return nil, err
	}
	return &Response{
		Data:    string(b),
		Message: fmt.Sprintf("role=%s replicas=%d", t.Role, len(t.Replicas)),
	}, nil
}

// promote serves a MsgPromote request: the replica detaches from its primary
// and starts accepting writes.
func (g *Governor) promote() (*Response, error) {
	if g.replica == nil {
		return nil, errors.New("server: not a replica")
	}
	if err := g.replica.Promote(); err != nil {
		return nil, err
	}
	return &Response{Message: "promoted: accepting writes"}, nil
}

// Server accepts client connections.
type Server struct {
	gov *Governor
	ln  net.Listener

	wg     sync.WaitGroup
	closed atomic.Bool
}

// Listen starts a server on addr (e.g. "127.0.0.1:5050").
func Listen(db *core.Database, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &Server{gov: NewGovernor(db), ln: ln}
	srv.wg.Add(1)
	go srv.acceptLoop()
	return srv, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Governor exposes the governor.
func (s *Server) Governor() *Governor { return s.gov }

// Close stops accepting and waits for connections to finish. Replication
// streams are terminated first — they are long-lived by design and would
// otherwise hold the shutdown forever.
func (s *Server) Close() error {
	s.closed.Store(true)
	s.gov.primary.Close()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return
			}
			log.Printf("sednad: accept: %v", err)
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// countingConn tallies wire traffic into the server byte counters.
type countingConn struct {
	net.Conn
	in, out *metrics.Counter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.in.Add(uint64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.out.Add(uint64(n))
	}
	return n, err
}

func (s *Server) handle(rawConn net.Conn) {
	defer rawConn.Close()
	conn := &countingConn{Conn: rawConn, in: s.gov.met.bytesIn, out: s.gov.met.bytesOut}
	sess := s.gov.NewSessionFor(rawConn.RemoteAddr().String())
	defer sess.Close()

	for {
		var req Request
		typ, err := ReadMsg(conn, &req)
		if err != nil {
			if errors.Is(err, ErrTooLarge) {
				// Report the protocol violation before dropping the
				// connection; the stream is unparseable past this point.
				s.gov.met.errors.Inc()
				WriteMsg(conn, MsgError, &Response{Error: err.Error()})
			}
			return // connection gone
		}
		s.gov.met.commands.Inc()
		var resp *Response
		var rerr error
		switch typ {
		case MsgHello:
			resp = &Response{Message: fmt.Sprintf("sedna-go session %d", sess.id)}
		case MsgBegin:
			rerr = sess.Begin(req.ReadOnly)
			resp = &Response{Message: "begun"}
		case MsgExecute:
			resp, rerr = sess.Execute(req.Query)
		case MsgCommit:
			rerr = sess.Commit()
			resp = &Response{Message: "committed"}
		case MsgRollback:
			rerr = sess.Rollback()
			resp = &Response{Message: "rolled back"}
		case MsgMetrics:
			resp = &Response{Data: s.gov.Metrics().Text()}
		case MsgSlowLog:
			resp, rerr = s.gov.slowLog(&req)
		case MsgWorkers:
			resp, rerr = s.gov.workers(&req)
		case MsgReplicate:
			// The connection becomes a replication stream and never returns
			// to the request-response loop.
			if err := s.gov.primary.ServeConn(conn, &req); err != nil {
				s.gov.met.errors.Inc()
				log.Printf("sednad: replication stream: %v", err)
			}
			return
		case MsgReplStatus:
			resp, rerr = s.gov.replStatus()
		case MsgPromote:
			resp, rerr = s.gov.promote()
		case MsgSessions:
			resp, rerr = s.gov.sessionsResp()
		case MsgKill:
			resp, rerr = s.gov.killResp(&req)
		case MsgCluster:
			resp, rerr = s.gov.clusterResp()
		case MsgQuit:
			WriteMsg(conn, MsgOK, &Response{Message: "bye"})
			return
		default:
			rerr = fmt.Errorf("server: unknown message type %d", typ)
		}
		if rerr != nil {
			s.gov.met.errors.Inc()
			if err := WriteMsg(conn, MsgError, &Response{Error: rerr.Error()}); err != nil {
				return
			}
			continue
		}
		out := byte(MsgOK)
		switch typ {
		case MsgExecute, MsgMetrics, MsgSlowLog, MsgWorkers, MsgReplStatus, MsgSessions, MsgCluster:
			out = MsgResult
		}
		if err := WriteMsg(conn, out, resp); err != nil {
			return
		}
	}
}
