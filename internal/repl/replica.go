package repl

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"sedna/internal/core"
	"sedna/internal/metrics"
	"sedna/internal/wal"
	"sedna/internal/wire"
)

// Reconnect backoff bounds.
const (
	backoffMin = 100 * time.Millisecond
	backoffMax = 5 * time.Second
)

// readTimeout bounds how long the replica waits for a frame; the primary
// heartbeats far more often than this, so an expired read means the
// connection is dead even if TCP has not noticed.
const readTimeout = 5 * time.Second

// handshakeTimeout bounds the MsgReplicate reply; a seeding handshake waits
// for a full hot backup on the primary first, so it is far more generous.
const handshakeTimeout = 10 * time.Minute

// Replica runs one database in replica mode: it connects to a primary,
// seeds itself with a hot backup when starting empty, and applies the
// streamed log continuously, reconnecting with exponential backoff after
// failures. Reads are served from the underlying database the whole time;
// Promote detaches it and makes it writable.
type Replica struct {
	dir     string
	primary string
	db      *core.Database

	reconnects *metrics.Counter
	lag        *metrics.Gauge

	mu      sync.Mutex
	conn    net.Conn // live stream, nil while disconnected
	state   string
	lastErr error

	// Stream state, owned by the run loop: pending accumulates each
	// in-flight primary transaction's records until its commit arrives.
	pending  map[uint64]*pendingTxn
	pos      uint64 // next primary-log byte expected from the stream
	restartW uint64 // resume point: everything below is applied or aborted
	commitW  uint64 // just past the last applied commit record

	stop chan struct{}
	once sync.Once
	done chan struct{}
}

type pendingTxn struct {
	first uint64 // LSN of the transaction's begin record
	recs  []*wal.Record
}

// errApply marks a local apply failure: the data diverged or the disk
// failed, so reconnecting cannot help and the replica halts.
var errApply = errors.New("repl: apply failed")

// Start opens (seeding first if dir holds no database) and runs a replica of
// the primary at addr. opts.Replica is forced on. The returned replica is
// already serving reads; streaming and catch-up proceed in the background.
func Start(dir, addr string, opts core.Options) (*Replica, error) {
	opts.Replica = true
	r := &Replica{
		dir:     dir,
		primary: addr,
		state:   "connecting",
		pending: make(map[uint64]*pendingTxn),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}

	var conn net.Conn
	var start uint64
	if _, err := os.Stat(filepath.Join(dir, "data.sdb")); os.IsNotExist(err) {
		// Empty directory: seed from a hot backup over the wire, then open
		// the restored copy. The same connection continues as the stream.
		c, hs, err := r.dial(0, true)
		if err != nil {
			return nil, fmt.Errorf("repl: seed from %s: %w", addr, err)
		}
		if err := r.receiveSeed(c); err != nil {
			c.Close()
			return nil, fmt.Errorf("repl: seed from %s: %w", addr, err)
		}
		db, err := core.Open(dir, opts)
		if err != nil {
			c.Close()
			return nil, err
		}
		// Make the seed point durable before applying anything: a crash
		// right after seeding must not resume from LSN zero.
		if err := db.SetReplProgress(hs.StartLSN, hs.StartLSN); err != nil {
			c.Close()
			db.Close()
			return nil, err
		}
		r.db, conn, start = db, c, hs.StartLSN
	} else {
		db, err := core.Open(dir, opts)
		if err != nil {
			return nil, err
		}
		r.db = db
		start, _ = db.ReplProgress()
	}

	r.reconnects = r.db.Metrics().Counter("repl.reconnects")
	r.lag = r.db.Metrics().Gauge("repl.replica_lag_lsn")
	r.pos, r.restartW = start, start
	_, r.commitW = r.db.ReplProgress()
	r.setConn(conn)
	go r.run(conn)
	return r, nil
}

// DB returns the underlying database (read-only until promoted).
func (r *Replica) DB() *core.Database { return r.db }

// SelfStatus is a replica's own view of replication, served as the <self>
// element of doc("$replication").
type SelfStatus struct {
	Primary    string `json:"primary"`
	State      string `json:"state"`
	RestartLSN uint64 `json:"restart_lsn"`
	CommitLSN  uint64 `json:"commit_lsn"`
	LagLSNs    uint64 `json:"lag_lsns"`
	LastError  string `json:"last_error,omitempty"`
}

// Status reports connection state and watermarks.
func (r *Replica) Status() SelfStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := SelfStatus{
		Primary:    r.primary,
		State:      r.state,
		RestartLSN: r.restartW,
		CommitLSN:  r.commitW,
		LagLSNs:    uint64(r.lag.Value()),
	}
	if r.lastErr != nil {
		s.LastError = r.lastErr.Error()
	}
	return s
}

func (r *Replica) setState(state string, err error) {
	r.mu.Lock()
	r.state = state
	if err != nil {
		r.lastErr = err
	}
	r.mu.Unlock()
}

func (r *Replica) setConn(c net.Conn) {
	r.mu.Lock()
	r.conn = c
	r.mu.Unlock()
}

// BreakConn severs the current stream (tests: forces the reconnect path).
func (r *Replica) BreakConn() {
	r.mu.Lock()
	if r.conn != nil {
		r.conn.Close()
	}
	r.mu.Unlock()
}

// Stop ends streaming without closing the database.
func (r *Replica) Stop() {
	r.once.Do(func() { close(r.stop) })
	r.BreakConn()
	<-r.done
}

// Close stops streaming and closes the database.
func (r *Replica) Close() error {
	r.Stop()
	return r.db.Close()
}

// Promote detaches the replica from its primary and makes the database
// writable: streaming stops, buffered in-flight transactions are discarded
// (they were not committed on this node), and core.Promote recounts
// statistics and checkpoints. The database keeps serving throughout.
func (r *Replica) Promote() error {
	r.Stop()
	r.pending = map[uint64]*pendingTxn{}
	if err := r.db.Promote(); err != nil && !errors.Is(err, core.ErrNotReplica) {
		return err
	}
	r.setState("promoted", nil)
	return nil
}

// refusedError is a primary's ERROR answer to a stream request.
type refusedError struct{ msg string }

func (e *refusedError) Error() string { return "primary refused: " + e.msg }

// needsSeed reports whether err is a primary refusing to resume this
// replica's stream: the log it would need is retired (or never existed), so
// retrying cannot help and applying anything else would leave a gap.
func needsSeed(err error) bool {
	var ref *refusedError
	return errors.As(err, &ref) && strings.HasSuffix(ref.msg, "("+needSeed+")")
}

// dial connects to the primary and performs the MsgReplicate handshake.
func (r *Replica) dial(from uint64, needSeed bool) (net.Conn, *wire.Handshake, error) {
	conn, err := net.Dial("tcp", r.primary)
	if err != nil {
		return nil, nil, err
	}
	req := wire.Request{FromLSN: from, NeedSeed: needSeed}
	if err := wire.WriteRequest(conn, wire.MsgReplicate, &req); err != nil {
		conn.Close()
		return nil, nil, err
	}
	var resp wire.Response
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	typ, err := wire.ReadResponse(conn, &resp)
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	if typ == wire.MsgError {
		conn.Close()
		return nil, nil, &refusedError{msg: resp.Error}
	}
	var hs wire.Handshake
	if err := json.Unmarshal(resp.Data, &hs); err != nil {
		conn.Close()
		return nil, nil, err
	}
	return conn, &hs, nil
}

// receiveSeed stores the streamed backup files into dir/seed.tmp, restores
// them into dir and removes the staging area. Staging plus restore keeps the
// "is this directory initialised" check (data.sdb exists) truthful even if
// the transfer dies halfway.
func (r *Replica) receiveSeed(conn net.Conn) error {
	r.setState("seeding", nil)
	stage := filepath.Join(r.dir, "seed.tmp")
	if err := os.RemoveAll(stage); err != nil {
		return err
	}
	if err := os.MkdirAll(stage, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(stage)
	var cur *os.File
	var want int64
	closeCur := func() error {
		if cur == nil {
			return nil
		}
		err := cur.Sync()
		if cerr := cur.Close(); err == nil {
			err = cerr
		}
		cur = nil
		return err
	}
	defer closeCur()
	for {
		conn.SetReadDeadline(time.Now().Add(readTimeout))
		typ, body, err := wire.ReadFrame(conn)
		if err != nil {
			return err
		}
		switch typ {
		case wire.FrameSeedFile:
			if err := closeCur(); err != nil {
				return err
			}
			var sf wire.SeedFile
			if err := json.Unmarshal(body, &sf); err != nil {
				return err
			}
			if sf.Name != filepath.Base(sf.Name) || strings.HasPrefix(sf.Name, ".") {
				return fmt.Errorf("unsafe seed file name %q", sf.Name)
			}
			cur, err = os.Create(filepath.Join(stage, sf.Name))
			if err != nil {
				return err
			}
			want = sf.Size
		case wire.FrameSeedData:
			if cur == nil {
				return errors.New("seed data before file header")
			}
			if _, err := cur.Write(body); err != nil {
				return err
			}
			want -= int64(len(body))
		case wire.FrameSeedDone:
			if want != 0 {
				return fmt.Errorf("seed file truncated (%d bytes missing)", want)
			}
			if err := closeCur(); err != nil {
				return err
			}
			conn.SetReadDeadline(time.Time{})
			return core.Restore(stage, r.dir, -1)
		default:
			return fmt.Errorf("unexpected frame %#x during seed", typ)
		}
		if want < 0 {
			return errors.New("seed file overrun")
		}
	}
}

func (r *Replica) stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

// run is the replica's streaming loop: consume frames until the connection
// dies, then reconnect from the in-memory restart watermark with exponential
// backoff. A local apply failure halts the replica (state "failed") — the
// data cannot self-heal by reconnecting — and so does a primary that no
// longer has the log from the watermark on: the replica needs a new seed.
func (r *Replica) run(conn net.Conn) {
	defer close(r.done)
	backoff := backoffMin
	for {
		if conn == nil {
			c, hs, err := r.dial(r.restartW, false)
			if err != nil {
				if r.stopped() {
					return
				}
				if needsSeed(err) {
					r.setState("failed", err)
					return
				}
				r.setState("reconnecting", err)
				select {
				case <-r.stop:
					return
				case <-time.After(backoff):
				}
				if backoff *= 2; backoff > backoffMax {
					backoff = backoffMax
				}
				continue
			}
			conn = c
			backoff = backoffMin
			r.reconnects.Inc()
			r.setConn(conn)
			if r.stopped() {
				// Stop ran while this dial was out and found no connection
				// to break.
				conn.Close()
				return
			}
			// Reconnected streams restart at the watermark: drop partially
			// buffered transactions, they will be re-shipped in full.
			r.pending = map[uint64]*pendingTxn{}
			r.pos = hs.StartLSN
		}
		r.setState("streaming", nil)
		err := r.consume(conn)
		conn.Close()
		r.setConn(nil)
		conn = nil
		if r.stopped() {
			return
		}
		if errors.Is(err, errApply) {
			r.setState("failed", err)
			return
		}
		r.setState("reconnecting", err)
	}
}

// consume processes stream frames until an error.
func (r *Replica) consume(conn net.Conn) error {
	for {
		conn.SetReadDeadline(time.Now().Add(readTimeout))
		typ, body, err := wire.ReadFrame(conn)
		if err != nil {
			return err
		}
		switch typ {
		case wire.FrameWAL:
			if len(body) < 8 {
				return errors.New("repl: short WAL frame")
			}
			base := binary.LittleEndian.Uint64(body)
			if base != r.pos {
				return fmt.Errorf("repl: stream gap: got chunk at %d, expected %d", base, r.pos)
			}
			if err := r.applyChunk(base, body[8:]); err != nil {
				return err
			}
			if err := r.saveRestart(); err != nil {
				return err
			}
			if err := r.ack(conn); err != nil {
				return err
			}
		case wire.FrameHeartbeat:
			if len(body) == 8 {
				durable := binary.LittleEndian.Uint64(body)
				var lag uint64
				if durable > r.restartW {
					lag = durable - r.restartW
				}
				r.lag.Set(int64(lag))
			}
			if err := r.ack(conn); err != nil {
				return err
			}
		default:
			return fmt.Errorf("repl: unexpected frame %#x on stream", typ)
		}
	}
}

// ack reports the saved restart watermark back to the primary. The primary
// holds its log only from the acknowledged LSN on, so the replica must never
// acknowledge a position a restart of its own would not resume from.
func (r *Replica) ack(conn net.Conn) error {
	restart, _ := r.db.ReplProgress()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], restart)
	return wire.WriteFrame(conn, wire.FrameAck, b[:])
}

// saveRestart makes the restart watermark durable when a chunk moved it
// past the saved one without applying a commit — over checkpoint records
// or an aborted transaction — so that the next ack can release that log.
func (r *Replica) saveRestart() error {
	if saved, _ := r.db.ReplProgress(); r.restartW > saved {
		if err := r.db.SetReplProgress(r.restartW, r.commitW); err != nil {
			return fmt.Errorf("%w: %v", errApply, err)
		}
	}
	return nil
}

// applyChunk walks one record-aligned chunk of the primary's log, buffering
// records per transaction and applying each transaction atomically when its
// commit record arrives. Commits at or below the commit watermark were
// already applied before a reconnect and are dropped; this is sound because
// transactions apply in commit-record order, so one watermark separates the
// applied from the unapplied.
func (r *Replica) applyChunk(base uint64, chunk []byte) error {
	r.mu.Lock() // watermarks are read by Status; mutate under the lock
	defer r.mu.Unlock()
	err := wal.ScanBytes(base, chunk, func(lsn uint64, rec *wal.Record, recLen int) error {
		switch rec.Type {
		case wal.RecBegin:
			r.pending[rec.Txn] = &pendingTxn{first: lsn}
		case wal.RecAbort:
			delete(r.pending, rec.Txn)
		case wal.RecCommit:
			end := lsn + uint64(recLen)
			pt := r.pending[rec.Txn]
			delete(r.pending, rec.Txn)
			if end <= r.commitW {
				return nil // applied before a reconnect; re-shipped overlap
			}
			if pt == nil {
				return fmt.Errorf("%w: commit of unknown transaction %d at %d", errApply, rec.Txn, lsn)
			}
			restart := r.minPending(end)
			if err := r.db.ApplyReplicated(pt.recs, restart, end); err != nil {
				return fmt.Errorf("%w: %v", errApply, err)
			}
			r.restartW, r.commitW = restart, end
		case wal.RecCheckpoint, wal.RecReplApplied:
			// Node-local records; never replicated across nodes.
		default:
			if pt, ok := r.pending[rec.Txn]; ok {
				// The record's Data aliases the chunk; the transaction may
				// commit in a later one.
				pt.recs = append(pt.recs, rec.Clone())
			}
			// Records of transactions begun before the stream start belong
			// to already-applied transactions; their commit is dropped by
			// the watermark, so the records are skipped silently too.
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.pos = base + uint64(len(chunk))
	r.restartW = r.minPending(r.pos)
	return nil
}

// minPending returns the restart watermark given the scan has reached fallback:
// the oldest first-record LSN among in-flight transactions, or fallback when
// none are in flight.
func (r *Replica) minPending(fallback uint64) uint64 {
	min := fallback
	for _, pt := range r.pending {
		if pt.first < min {
			min = pt.first
		}
	}
	return min
}
