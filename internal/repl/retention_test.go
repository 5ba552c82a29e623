package repl_test

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"sedna/client"
	"sedna/internal/core"
	"sedna/internal/repl"
	"sedna/internal/server"
)

// writeAndCheckpoint commits n inserts on the primary and checkpoints it.
func writeAndCheckpoint(t *testing.T, p *client.Conn, db *core.Database, tag string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		mustExec(t, p, fmt.Sprintf(`UPDATE insert <%s>%d</%s> into doc("d")/r`, tag, i, tag))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func gauge(db *core.Database, name string) int64 {
	return db.Metrics().Snapshot().Gauges[name]
}

// TestReplicaRefusedAfterRetire stops a replica, lets the primary write and
// checkpoint twice (retiring the log the replica would resume from), and
// restarts it: the primary refuses the stream naming both LSNs, the replica
// halts as failed, and its data is what it was.
func TestReplicaRefusedAfterRetire(t *testing.T) {
	srv, db := startPrimary(t)
	p := connect(t, srv.Addr())
	mustExec(t, p, `CREATE DOCUMENT "d"`)
	mustExec(t, p, `UPDATE insert <r><a>1</a></r> into doc("d")`)

	dir := t.TempDir()
	rep, err := repl.Start(dir, srv.Addr(), core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	rsrv, err := server.Listen(rep.DB(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := connect(t, rsrv.Addr())
	want := waitConverged(t, p, r, `doc("d")/r`)
	r.Close()
	rsrv.Close()
	rep.Stop()
	restart, _ := rep.DB().ReplProgress()
	if err := rep.DB().Close(); err != nil {
		t.Fatal(err)
	}

	writeAndCheckpoint(t, p, db, "b", 20)
	writeAndCheckpoint(t, p, db, "c", 20)
	oldest := db.WAL().OldestLSN()
	if oldest <= restart {
		t.Fatalf("primary kept the log from %d; the replica's restart LSN %d is not retired", oldest, restart)
	}

	rep2, rsrv2 := startReplica(t, dir, srv.Addr())
	deadline := time.Now().Add(10 * time.Second)
	for rep2.Status().State != "failed" && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	st := rep2.Status()
	if st.State != "failed" {
		t.Fatalf("replica state %q (%s), want failed", st.State, st.LastError)
	}
	for _, s := range []string{fmt.Sprint(restart), fmt.Sprint(oldest), "need a seed"} {
		if !strings.Contains(st.LastError, s) {
			t.Fatalf("replica error %q does not mention %q", st.LastError, s)
		}
	}
	r2 := connect(t, rsrv2.Addr())
	if got := mustExec(t, r2, `doc("d")/r`).Data; got != want {
		t.Fatalf("refused replica's data changed:\n%s\nwant:\n%s", got, want)
	}
}

// TestConnectedReplicaHoldsLog pauses a connected replica's stream while
// the primary writes and checkpoints twice: the segments stay, counted in
// wal.replica_held_bytes. After the stream resumes the replica converges,
// and once it has caught up the next checkpoint retires them.
func TestConnectedReplicaHoldsLog(t *testing.T) {
	srv, db := startPrimary(t)
	p := connect(t, srv.Addr())
	mustExec(t, p, `CREATE DOCUMENT "d"`)
	mustExec(t, p, `UPDATE insert <r><a>1</a></r> into doc("d")`)

	px := newPausableProxy(t, srv.Addr())
	rep, rsrv := startReplica(t, t.TempDir(), px.addr())
	r := connect(t, rsrv.Addr())
	waitConverged(t, p, r, `doc("d")/r`)

	px.pause()
	writeAndCheckpoint(t, p, db, "b", 20)
	writeAndCheckpoint(t, p, db, "c", 20)
	if held := gauge(db, "wal.replica_held_bytes"); held <= 0 {
		t.Fatalf("wal.replica_held_bytes = %d with the replica's stream paused", held)
	}
	if n := gauge(db, "wal.segments"); n < 3 {
		t.Fatalf("wal.segments = %d, want the paused replica's segments kept", n)
	}
	px.resume()

	waitConverged(t, p, r, `count(doc("d")/r/*)`)
	waitConverged(t, p, r, `doc("d")/r`)
	if st := rep.Status(); st.State != "streaming" {
		t.Fatalf("replica state %q (%s), want streaming", st.State, st.LastError)
	}
	waitAcked(t, srv, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if held, n := gauge(db, "wal.replica_held_bytes"), gauge(db, "wal.segments"); held != 0 || n != 1 {
		t.Fatalf("after catch-up and a checkpoint: wal.replica_held_bytes = %d, wal.segments = %d; want 0 and 1", held, n)
	}
}

// TestReplicaResumesAfterIdleCheckpoints checkpoints an idle primary while
// a replica stays connected and acknowledges each checkpoint record, then
// checkpoints once more with the replica stopped and restarts it. The
// primary retires its log below what the replica acknowledged, so the
// replica must have saved that position: it resumes streaming, not fails.
func TestReplicaResumesAfterIdleCheckpoints(t *testing.T) {
	srv, db := startPrimary(t)
	p := connect(t, srv.Addr())
	mustExec(t, p, `CREATE DOCUMENT "d"`)
	mustExec(t, p, `UPDATE insert <r><a>1</a></r> into doc("d")`)

	dir := t.TempDir()
	rep, err := repl.Start(dir, srv.Addr(), core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	rsrv, err := server.Listen(rep.DB(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := connect(t, rsrv.Addr())
	waitConverged(t, p, r, `doc("d")/r`)
	for i := 0; i < 3; i++ {
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		waitAcked(t, srv, db)
	}
	r.Close()
	rsrv.Close()
	rep.Stop()
	if err := rep.DB().Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, p, `UPDATE insert <b>after</b> into doc("d")/r`)

	rep2, rsrv2 := startReplica(t, dir, srv.Addr())
	r2 := connect(t, rsrv2.Addr())
	waitConverged(t, p, r2, `doc("d")/r`)
	if st := rep2.Status(); st.State != "streaming" {
		t.Fatalf("restarted replica state %q (%s), want streaming", st.State, st.LastError)
	}
}

// waitAcked waits until the primary's one replica stream has acknowledged
// the primary's durable LSN.
func waitAcked(t *testing.T, srv *server.Server, db *core.Database) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		durable := db.WAL().DurableLSN()
		if s := srv.Governor().Primary().Status(); len(s) == 1 && s[0].AckedLSN == durable {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica did not acknowledge the durable LSN: %+v", srv.Governor().Primary().Status())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// pausableProxy forwards TCP connections to a target; while paused it
// stops writing in both directions (the connections stay open).
type pausableProxy struct {
	ln     net.Listener
	target string
	gate   sync.RWMutex
	mu     sync.Mutex
	conns  []net.Conn
}

func newPausableProxy(t *testing.T, target string) *pausableProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	px := &pausableProxy{ln: ln, target: target}
	go px.serve()
	t.Cleanup(px.close)
	return px
}

func (px *pausableProxy) addr() string { return px.ln.Addr().String() }
func (px *pausableProxy) pause()       { px.gate.Lock() }
func (px *pausableProxy) resume()      { px.gate.Unlock() }

func (px *pausableProxy) serve() {
	for {
		c, err := px.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", px.target)
		if err != nil {
			c.Close()
			continue
		}
		px.mu.Lock()
		px.conns = append(px.conns, c, up)
		px.mu.Unlock()
		go px.pipe(up, c)
		go px.pipe(c, up)
	}
}

// pipe copies src to dst, holding each write until the proxy is not paused.
func (px *pausableProxy) pipe(dst, src net.Conn) {
	defer dst.Close()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			px.gate.RLock()
			_, werr := dst.Write(buf[:n])
			px.gate.RUnlock()
			if werr != nil {
				return
			}
		}
		if err != nil {
			if err != io.EOF {
				src.Close()
			}
			return
		}
	}
}

func (px *pausableProxy) close() {
	px.ln.Close()
	px.mu.Lock()
	defer px.mu.Unlock()
	for _, c := range px.conns {
		c.Close()
	}
}
