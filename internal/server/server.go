package server

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sedna/internal/core"
	"sedna/internal/metrics"
	"sedna/internal/query"
	"sedna/internal/repl"
	"sedna/internal/trace"
	"sedna/internal/wire"
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

	// systemDocs is systemDoc bound once, handed to every statement's
	// execution context (sysdocs.go).
	systemDocs query.SystemDocs

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

	// The engine counters a statement's accounting window reads
	// (sessions.go).
	faults, diskReads, diskWrites, walBytes *metrics.Counter
	lockWait                                *metrics.Histogram

	// Statements a session's template cache answered, and those it parsed;
	// statements that failed to parse, which count with the engine's
	// execution failures.
	templateHits, templateMisses, queryErrors *metrics.Counter
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

		faults:     reg.Counter("buffer.faults"),
		diskReads:  reg.Counter("buffer.disk_reads"),
		diskWrites: reg.Counter("buffer.disk_writes"),
		walBytes:   reg.Counter("wal.append_bytes"),
		lockWait:   reg.Histogram("lock.wait_ns"),

		templateHits:   reg.Counter("query.template_hits"),
		templateMisses: reg.Counter("query.template_misses"),
		queryErrors:    reg.Counter("query.errors"),
	}
}

// NewGovernor creates a governor over an open database; it reports into the
// database's metrics registry under the "server." family, which also gains
// the process-level build/uptime gauges both expositions serve.
func NewGovernor(db *core.Database) *Governor {
	reg := db.Metrics()
	metrics.RegisterBuildInfo(reg)
	metrics.RegisterUptime(reg, time.Now())
	g := &Governor{
		db:       db,
		primary:  repl.NewPrimary(db),
		sessions: make(map[uint64]*Session),
		met:      bindGovMetrics(reg),
	}
	g.systemDocs = g.systemDoc
	return g
}

// Primary returns the replication manager serving downstream replicas.
func (g *Governor) Primary() *repl.Primary { return g.primary }

// SetReplica attaches the replication client when this server fronts a
// replica database: doc("$replication") then reports its stream state and
// PROMOTE detaches it, making the node writable. Must be called before
// serving.
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

	out []byte // serialization buffer, reused across statements

	// templates are the statements the session prepared, and ctx the
	// execution context its statements run in, one at a time.
	templates query.TemplateCache
	ctx       *query.ExecCtx
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

// Response is the outcome of one statement run by Session.Execute.
type Response struct {
	Data    string // the serialized result sequence
	Updated int    // nodes an update statement affected
	Message string // acknowledgement of DDL
}

// Execute runs one statement. Inside an explicit transaction it uses it;
// otherwise it runs in auto-commit mode, choosing a read-only snapshot
// transaction for queries and an update transaction for everything else.
func (s *Session) Execute(src string) (*Response, error) {
	resp, err := s.execute(src)
	if err != nil {
		return nil, err
	}
	return &Response{Data: string(resp.Data), Updated: resp.Updated, Message: resp.Message}, nil
}

// maxKeptResult bounds the serialization buffer a session keeps for its next
// statement: one that grew past it is dropped once its result is sent, so an
// idle session does not pin a large result.
const maxKeptResult = 1 << 20

// resultBuf is a session's serialization buffer. It refuses to grow past the
// wire's message limit, so an oversized result is known before anything is
// sent, and stops costing memory where it crosses the limit.
type resultBuf []byte

func (b *resultBuf) Write(p []byte) (int, error) {
	if err := b.check(len(p)); err != nil {
		return 0, err
	}
	*b = append(*b, p...)
	return len(p), nil
}

func (b *resultBuf) WriteString(p string) (int, error) {
	if err := b.check(len(p)); err != nil {
		return 0, err
	}
	*b = append(*b, p...)
	return len(p), nil
}

func (b *resultBuf) check(n int) error {
	if len(*b)+n > wire.MaxMessage {
		return fmt.Errorf("server: result of at least %d bytes exceeds the %d MiB message limit", len(*b)+n, wire.MaxMessage>>20)
	}
	return nil
}

// execute is Execute with the result serialized into the session's buffer:
// the response's Data is valid until the session's next statement.
func (s *Session) execute(src string) (*wire.Response, error) {
	parseStart := time.Now()
	st, hit, err := s.templates.Parse(src)
	if hit {
		s.gov.met.templateHits.Inc()
	} else {
		s.gov.met.templateMisses.Inc()
	}
	if err != nil {
		s.gov.met.queryErrors.Inc()
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
	// The session's context is readied before the statement is registered,
	// so a late KILL of the last statement cannot land on this one.
	if s.ctx == nil {
		s.ctx = &query.ExecCtx{SystemDocs: s.gov.systemDocs}
	}
	ctx := s.ctx
	ctx.Reset(tx)
	// The session owns the statement's trace so an auto-commit (and its WAL
	// fsync) is captured inside it; FinishTrace is idempotent and runs after
	// the commit on the happy path.
	ctx.StartTrace(st.Source)
	if hit {
		ctx.RecordTemplateHit(parseNs)
	} else {
		ctx.RecordParse(parseNs)
	}
	defer ctx.FinishTrace()
	// Register the statement for introspection and KILL; every exit path
	// below unregisters it and settles the accounting window.
	base := s.beginStatement(st.Source, ctx)
	nodes := 0
	defer func() { s.endStatement(base, nodes, err) }()
	res, err := query.ExecuteStatement(ctx, st)
	if !hit {
		s.templates.Keep(st)
	}
	if err == nil {
		out := s.out[:0]
		err = res.Serialize((*resultBuf)(&out))
		s.out = out
		if cap(out) > maxKeptResult {
			s.out = nil
		}
		if err == nil {
			nodes = len(res.Items) + res.Updated
			if auto {
				if err = tx.Commit(); err != nil {
					return nil, err
				}
			}
			return &wire.Response{Data: out, Updated: res.Updated, Message: res.Message}, nil
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

// promote serves a MsgPromote request: the replica detaches from its primary
// and starts accepting writes.
func (g *Governor) promote() (*wire.Response, error) {
	if g.replica == nil {
		return nil, errors.New("server: not a replica")
	}
	if err := g.replica.Promote(); err != nil {
		return nil, err
	}
	return &wire.Response{Message: "promoted: accepting writes"}, nil
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
		typ, err := wire.ReadRequest(conn, &req)
		if err != nil {
			if errors.Is(err, ErrTooLarge) {
				// Report the protocol violation before dropping the
				// connection; the stream is unparseable past this point.
				s.gov.met.errors.Inc()
				wire.WriteResponse(conn, MsgError, &wire.Response{Error: err.Error()})
			}
			return // connection gone
		}
		s.gov.met.commands.Inc()
		var resp *wire.Response
		var rerr error
		switch typ {
		case MsgHello:
			resp = &wire.Response{Message: fmt.Sprintf("sedna-go session %d", sess.id)}
		case MsgBegin:
			rerr = sess.Begin(req.ReadOnly)
			resp = &wire.Response{Message: "begun"}
		case MsgExecute:
			resp, rerr = sess.execute(req.Query)
		case MsgCommit:
			rerr = sess.Commit()
			resp = &wire.Response{Message: "committed"}
		case MsgRollback:
			rerr = sess.Rollback()
			resp = &wire.Response{Message: "rolled back"}
		case MsgReplicate:
			// The connection becomes a replication stream and never returns
			// to the request-response loop.
			if err := s.gov.primary.ServeConn(conn, &req); err != nil {
				s.gov.met.errors.Inc()
				log.Printf("sednad: replication stream: %v", err)
			}
			return
		case MsgPromote:
			resp, rerr = s.gov.promote()
		case MsgKill:
			resp, rerr = s.gov.killResp(&req)
		case MsgQuit:
			wire.WriteResponse(conn, MsgOK, &wire.Response{Message: "bye"})
			return
		default:
			rerr = fmt.Errorf("server: unknown message type %d", typ)
		}
		if rerr == nil {
			out := byte(MsgOK)
			if typ == MsgExecute {
				out = MsgResult
			}
			// A response over the limit is refused before any byte of it is
			// written and is answered as an error instead.
			rerr = wire.WriteResponse(conn, out, resp)
			if rerr == nil {
				continue
			}
			if !errors.Is(rerr, ErrTooLarge) {
				return
			}
		}
		s.gov.met.errors.Inc()
		if err := wire.WriteResponse(conn, MsgError, &wire.Response{Error: rerr.Error()}); err != nil {
			return
		}
	}
}
