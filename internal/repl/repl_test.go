package repl_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sedna/client"
	"sedna/internal/core"
	"sedna/internal/query"
	"sedna/internal/repl"
	"sedna/internal/server"
	"sedna/internal/storage"
	"sedna/internal/xmlgen"
)

// startPrimary opens a fresh database and serves it.
func startPrimary(t *testing.T) (*server.Server, *core.Database) {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.Listen(db, "127.0.0.1:0")
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return srv, db
}

// startReplica seeds a replica of the primary into dir and serves it.
func startReplica(t *testing.T, dir, primaryAddr string) (*repl.Replica, *server.Server) {
	t.Helper()
	rep, err := repl.Start(dir, primaryAddr, core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.Listen(rep.DB(), "127.0.0.1:0")
	if err != nil {
		rep.Close()
		t.Fatal(err)
	}
	srv.Governor().SetReplica(rep)
	t.Cleanup(func() {
		srv.Close()
		rep.Stop()
		rep.DB().Close()
	})
	return rep, srv
}

func connect(t *testing.T, addr string) *client.Conn {
	t.Helper()
	c, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func mustExec(t *testing.T, c *client.Conn, q string) *client.Result {
	t.Helper()
	res, err := c.Execute(q)
	if err != nil {
		t.Fatalf("execute %q: %v", q, err)
	}
	return res
}

// waitConverged polls until the replica answers q exactly like the primary.
func waitConverged(t *testing.T, primary, replica *client.Conn, q string) string {
	t.Helper()
	want := mustExec(t, primary, q).Data
	deadline := time.Now().Add(15 * time.Second)
	var got string
	for time.Now().Before(deadline) {
		res, err := replica.Execute(q)
		if err == nil {
			got = res.Data
			if got == want {
				return want
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("replica did not converge on %q: primary=%q replica=%q", q, want, got)
	return ""
}

// TestReplicaSeedAndStreamConverges seeds two replicas from a primary that
// already holds a document, streams a write burst to both, and requires all
// three nodes to answer every convergence query identically.
func TestReplicaSeedAndStreamConverges(t *testing.T) {
	srv, _ := startPrimary(t)
	p := connect(t, srv.Addr())

	// Pre-seed state: exercised by the hot-backup transfer.
	mustExec(t, p, `CREATE DOCUMENT "d"`)
	mustExec(t, p, `UPDATE insert <r><seed>1</seed></r> into doc("d")`)

	var replicas []*client.Conn
	for i := 0; i < 2; i++ {
		_, rsrv := startReplica(t, t.TempDir(), srv.Addr())
		replicas = append(replicas, connect(t, rsrv.Addr()))
	}

	// Write burst while the replicas stream.
	for i := 0; i < 1000; i++ {
		mustExec(t, p, fmt.Sprintf(`UPDATE insert <x>%d</x> into doc("d")/r`, i))
	}
	mustExec(t, p, `CREATE DOCUMENT "late"`)
	mustExec(t, p, `UPDATE insert <l><v>42</v></l> into doc("late")`)

	for _, r := range replicas {
		waitConverged(t, p, r, `count(doc("d")/r/x)`)
		data := waitConverged(t, p, r, `doc("d")/r`)
		if data == "" {
			t.Fatal("empty converged serialization")
		}
		waitConverged(t, p, r, `doc("late")/l`)

		// The replica is read-only.
		if _, err := r.Execute(`UPDATE insert <nope/> into doc("d")/r`); err == nil {
			t.Fatal("replica accepted a write before promotion")
		}
		q := `let $r := doc("$replication")/replication return concat($r/@role, " ", $r/self/@state)`
		if rt := mustExec(t, r, q).Data; rt != "replica streaming" {
			t.Fatalf("replica topology = %q", rt)
		}
	}

	// Topology is observable from the primary too.
	q := `let $r := doc("$replication")/replication return concat($r/@role, " ", count($r/replica))`
	if pt := mustExec(t, p, q).Data; pt != "primary 2" {
		t.Fatalf("primary topology = %q", pt)
	}
}

func TestReplicaReconnectCatchesUp(t *testing.T) {
	srv, _ := startPrimary(t)
	p := connect(t, srv.Addr())
	mustExec(t, p, `CREATE DOCUMENT "d"`)
	mustExec(t, p, `UPDATE insert <r/> into doc("d")`)

	rep, rsrv := startReplica(t, t.TempDir(), srv.Addr())
	r := connect(t, rsrv.Addr())
	waitConverged(t, p, r, `count(doc("d")//node())`)

	// Sever the stream, keep writing, and require full catch-up after the
	// automatic reconnect.
	rep.BreakConn()
	for i := 0; i < 100; i++ {
		mustExec(t, p, fmt.Sprintf(`UPDATE insert <y>%d</y> into doc("d")/r`, i))
	}
	waitConverged(t, p, r, `count(doc("d")/r/y)`)
	waitConverged(t, p, r, `doc("d")/r`)
	if n := rep.DB().Metrics().Counter("repl.reconnects").Value(); n == 0 {
		t.Fatal("reconnect not counted")
	}
}

func TestReplicaRestartResumesFromWatermark(t *testing.T) {
	srv, _ := startPrimary(t)
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
	rsrv.Governor().SetReplica(rep)
	r := connect(t, rsrv.Addr())
	waitConverged(t, p, r, `doc("d")/r`)

	// Shut the replica down cleanly, advance the primary, restart the
	// replica over the same directory: it must resume from its persisted
	// watermark (no seed) and catch up.
	r.Close() // the server waits for live sessions on Close
	rsrv.Close()
	rep.Stop()
	if err := rep.DB().Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		mustExec(t, p, fmt.Sprintf(`UPDATE insert <b>%d</b> into doc("d")/r`, i))
	}

	_, rsrv2 := startReplica(t, dir, srv.Addr())
	r2 := connect(t, rsrv2.Addr())
	waitConverged(t, p, r2, `count(doc("d")/r/b)`)
	waitConverged(t, p, r2, `doc("d")/r`)
}

func TestPromoteMakesReplicaWritableAndDurable(t *testing.T) {
	srv, _ := startPrimary(t)
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
	rsrv.Governor().SetReplica(rep)
	r := connect(t, rsrv.Addr())
	waitConverged(t, p, r, `doc("d")/r`)

	if _, err := r.Execute(`UPDATE insert <w/> into doc("d")/r`); err == nil {
		t.Fatal("write accepted before promotion")
	}
	msg, err := r.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if msg == "" {
		t.Fatal("empty promote acknowledgement")
	}
	mustExec(t, r, `UPDATE insert <w>post</w> into doc("d")/r`)
	if got := mustExec(t, r, `count(doc("d")/r/w)`).Data; got != "1" {
		t.Fatalf("post-promote write invisible: count=%q", got)
	}
	if role := mustExec(t, r, `string(doc("$replication")/replication/@role)`).Data; role != "primary" {
		t.Fatalf("promoted node still reports role %q", role)
	}

	// Promoted writes survive a clean restart as a normal database.
	r.Close() // the server waits for live sessions on Close
	rsrv.Close()
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := core.Open(dir, core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if db.Replica() {
		t.Fatal("promoted database reopened as replica")
	}
	srv2, err := server.Listen(db, "127.0.0.1:0")
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	c2 := connect(t, srv2.Addr())
	got := mustExec(t, c2, `count(doc("d")/r/w)`).Data
	c2.Close() // before srv2.Close: the server waits for live sessions
	srv2.Close()
	db.Close()
	if got != "1" {
		t.Fatalf("post-promote write lost after restart: count=%q", got)
	}
}

// TestReplicaAppliesBulkLoad streams a primary-side bulk load (whole-page
// WAL images plus the RecBulkLoad marker) to a replica and requires the
// replica to serve the identical document, account the load as a load, and
// keep it through a restart of its own.
func TestReplicaAppliesBulkLoad(t *testing.T) {
	srv, db := startPrimary(t)
	p := connect(t, srv.Addr())
	mustExec(t, p, `CREATE DOCUMENT "seed"`)
	mustExec(t, p, `UPDATE insert <r><a>1</a></r> into doc("seed")`)

	dir := t.TempDir()
	rep, rsrv := startReplica(t, dir, srv.Addr())
	r := connect(t, rsrv.Addr())
	waitConverged(t, p, r, `doc("seed")/r`)

	// Bulk-load on the primary through the embedded API (the path every
	// fresh-document LoadXML takes), while the replica streams.
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.LoadXML("lib", strings.NewReader(xmlgen.LibraryString(300, 11))); err != nil {
		tx.Rollback()
		t.Fatalf("bulk load on primary: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	waitConverged(t, p, r, `count(doc("lib")//node())`)
	if data := waitConverged(t, p, r, `doc("lib")/library/book[5]`); data == "" {
		t.Fatal("empty converged serialization")
	}
	if n := rep.DB().Metrics().Counter("load.replicated_bulk_loads").Value(); n != 1 {
		t.Fatalf("load.replicated_bulk_loads = %d, want 1", n)
	}
	if n := rep.DB().Metrics().Counter("load.replicated_bulk_nodes").Value(); n == 0 {
		t.Fatal("load.replicated_bulk_nodes not accounted")
	}

	// Counters stay approximate during physical apply; promotion recounts
	// them, after which the bulk-loaded document must verify fully.
	if _, err := r.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	rtx, err := rep.DB().BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := rtx.Document("lib")
	if err != nil {
		rtx.Rollback()
		t.Fatalf("replicated document missing: %v", err)
	}
	if err := storage.VerifyDoc(rtx.Tx, doc); err != nil {
		rtx.Rollback()
		t.Fatalf("replicated document corrupt after promote: %v", err)
	}
	rtx.Rollback()
}

// TestReplicaIndexes: an index seeded with the replica and one created while
// it streams are kept up to date by the applied log, answer index-scan and
// value lookups exactly like the primary's, and are maintained by the
// replica's own writes once it is promoted.
func TestReplicaIndexes(t *testing.T) {
	srv, _ := startPrimary(t)
	p := connect(t, srv.Addr())
	mustExec(t, p, `CREATE DOCUMENT "d"`)
	mustExec(t, p, `UPDATE insert <r><x k="k0" n="0"/></r> into doc("d")`)
	mustExec(t, p, `CREATE INDEX "byk" ON doc("d")/r/x BY @k AS string`)

	rep, rsrv := startReplica(t, t.TempDir(), srv.Addr())
	r := connect(t, rsrv.Addr())
	waitConverged(t, p, r, `index-scan("byk", "k0")`)

	mustExec(t, p, `CREATE INDEX "byn" ON doc("d")//x BY @n AS number`)
	for i := 1; i <= 40; i++ {
		mustExec(t, p, fmt.Sprintf(`UPDATE insert <x k="k%d" n="%d"/> into doc("d")/r`, i, i))
	}
	mustExec(t, p, `UPDATE delete doc("d")/r/x[@k = "k7"]`)
	for _, q := range []string{
		`count(doc("d")/r/x)`,
		`index-scan("byk", "k37")`,
		`count(index-scan("byk", "k7"))`,
		`data(index-scan("byn", 23)/@k)`,
		`doc("d")/r/x[@k = "k12"]`,
	} {
		waitConverged(t, p, r, q)
	}

	if _, err := r.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	mustExec(t, r, `UPDATE insert <x k="new" n="999"/> into doc("d")/r`)
	if got := mustExec(t, r, `data(index-scan("byk", "new")/@n)`).Data; got != "999" {
		t.Fatalf("promoted replica's insert through byk: %q", got)
	}
	if got := mustExec(t, r, `data(index-scan("byn", 999)/@k)`).Data; got != "new" {
		t.Fatalf("promoted replica's insert through byn: %q", got)
	}
	for _, name := range []string{"byk", "byn"} {
		meta, ok := rep.DB().Catalog().Index(name)
		if !ok {
			t.Fatalf("index %q missing on the replica", name)
		}
		if _, err := meta.Paths(func(string, string) (any, error) {
			return nil, fmt.Errorf("index %q parsed again", name)
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// verifyDocs runs storage.VerifyDoc, which checks the per-schema-node
// counters among the rest, on every document of db.
func verifyDocs(t *testing.T, db *core.Database, when string) {
	t.Helper()
	tx, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	for _, name := range db.Catalog().DocNames() {
		doc, err := tx.Document(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := storage.VerifyDoc(tx.Tx, doc); err != nil {
			t.Errorf("%s: document %s: %v", when, name, err)
		}
	}
}

// TestReplicaCountersAfterRestart pins what a replica's counters are worth.
// Apply does not keep them (a live replica plans with the counts of its
// seed), so every open of a database that has applied replicated
// transactions recounts all of its documents, and Promote recounts them too:
// after a clean stop, the replica reopened as a replica, through a plain
// core.Open and once promoted must pass VerifyDoc on every document.
func TestReplicaCountersAfterRestart(t *testing.T) {
	srv, _ := startPrimary(t)
	p := connect(t, srv.Addr())
	mustExec(t, p, `CREATE DOCUMENT "d"`)
	mustExec(t, p, `UPDATE insert <r><a>1</a></r> into doc("d")`)

	dir := t.TempDir()
	rep, err := repl.Start(dir, srv.Addr(), core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		mustExec(t, p, fmt.Sprintf(`UPDATE insert <b>%d</b> into doc("d")/r`, i))
	}
	deadline := time.Now().Add(15 * time.Second)
	for count(t, rep.DB(), `count(doc("d")/r/b)`) != "50" {
		if time.Now().After(deadline) {
			t.Fatal("the replica did not apply the 50 inserts")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err = repl.Start(dir, srv.Addr(), core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	verifyDocs(t, rep.DB(), "reopened as a replica")
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}

	db, err := core.Open(dir, core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	verifyDocs(t, db, "reopened through core.Open")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err = repl.Start(dir, srv.Addr(), core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.DB().Close()
	if err := rep.Promote(); err != nil {
		t.Fatal(err)
	}
	verifyDocs(t, rep.DB(), "promoted")
	if got := count(t, rep.DB(), `count(doc("d")/r/b)`); got != "50" {
		t.Fatalf("the promoted replica holds %s inserts, want 50", got)
	}
}

// count evaluates a query on db in a read-only transaction.
func count(t *testing.T, db *core.Database, q string) string {
	t.Helper()
	tx, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	res, err := query.Execute(query.NewExecCtx(tx), q)
	if err != nil {
		t.Fatal(err)
	}
	s, err := res.String()
	if err != nil {
		t.Fatal(err)
	}
	return s
}
