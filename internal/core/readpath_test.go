package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sedna/internal/core"
	"sedna/internal/lock"
	"sedna/internal/query"
	"sedna/internal/sas"
	"sedna/internal/xmlgen"
)

// scanRing mirrors core's scanRingPages: what a whole-document pass may
// keep in the pool at a time.
const scanRing = 256

// bigAuction is a document of some 900 pages: seven 128-page pools, three
// scan rings.
var bigAuction = sync.OnceValue(func() string { return xmlgen.AuctionString(1200, 2700, 6, 21) })

// dataPages is the size of the data file under dir in pages.
func dataPages(t *testing.T, dir string) int {
	t.Helper()
	st, err := os.Stat(filepath.Join(dir, "data.sdb"))
	if err != nil {
		t.Fatal(err)
	}
	return int(st.Size() / sas.PageSize)
}

// TestSnapshotScansUnderPoolPressure: snapshot readers pin pool frames now,
// so a scan over a document several times the pool must keep
// working — frames evicted under it, none left pinned behind it (a leaked pin
// takes a frame out of a 128-frame pool for good and shows as ErrBusy within
// the run) — and answer exactly what a pool that holds the whole document
// answers.
func TestSnapshotScansUnderPoolPressure(t *testing.T) {
	const pool = 128
	xml := bigAuction()
	queries := []string{
		`count(doc("big")//bidder)`,
		`count(doc("big")//item[quantity > 1])`,
		`doc("big")/site/people/person[@id = "p37"]/name`,
		`sum(doc("big")//bidder/increase)`,
		`count(doc("big")//text())`,
	}
	answers := func(db *core.Database, statements int) []string {
		out := make([]string, statements)
		for i := range out {
			out[i] = runQuery(t, db, queries[i%len(queries)])
		}
		return out
	}

	roomy := openBulkDB(t, core.Options{BufferPages: 2048})
	loadDoc(t, roomy, "big", xml)
	want := answers(roomy, len(queries))

	tight := openBulkDB(t, core.Options{BufferPages: pool})
	loadDoc(t, tight, "big", xml)
	if err := tight.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := dataPages(t, tight.Dir()); n < 3*pool {
		t.Fatalf("document of %d pages against a pool of %d", n, pool)
	}
	before := tight.Metrics().Snapshot().Counters
	got := answers(tight, 200)
	after := tight.Metrics().Snapshot().Counters
	for i, g := range got {
		if g != want[i%len(want)] {
			t.Fatalf("statement %d (%s) answers %q under pool pressure, %q with room", i, queries[i%len(queries)], g, want[i%len(want)])
		}
	}
	if after["buffer.evictions"] == before["buffer.evictions"] {
		t.Fatal("no evictions: the document fits the pool and the test shows nothing")
	}
	if n := after["buffer.snapshot_reads"] - before["buffer.snapshot_reads"]; n != 0 {
		t.Fatalf("%d views served from version chains with no writer around", n)
	}
}

// TestSnapshotStatementsIgnoreHeldLock: an update transaction that has
// inserted and not committed holds the exclusive document lock for as long
// as it likes. Every snapshot statement completes meanwhile, sees none of
// its writes and waits for no lock (§6.1, §6.3). A statement that did wait
// fails at the lock timeout rather than hanging the test.
func TestSnapshotStatementsIgnoreHeldLock(t *testing.T) {
	db := openBulkDB(t, core.Options{LockTimeout: time.Second})
	loadDoc(t, db, "lib", xmlgen.LibraryString(200, 42))
	const q = `count(doc("lib")/library/book)`
	before := runQuery(t, db, q)

	upd, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer upd.Rollback() // no-op after the commit; unblocks Close on a failure
	queryIn(t, upd, `UPDATE insert <book><title>uncommitted</title></book> into doc("lib")/library`)
	if err := upd.LockDocument("lib", lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	waits := db.Metrics().Counter("lock.waits")
	w0 := waits.Value()
	for i := 0; i < 100; i++ {
		if got := runQuery(t, db, q); got != before {
			t.Fatalf("snapshot statement %d counts %s books beside an uncommitted insert, %s before it", i, got, before)
		}
	}
	if n := waits.Value() - w0; n != 0 {
		t.Fatalf("snapshot statements waited for a lock %d times under a held exclusive lock", n)
	}
	if err := upd.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := runQuery(t, db, q); got == before {
		t.Fatalf("a statement after the commit still counts %s books", got)
	}
}

// liveVersions returns the page versions the buffer's chains hold, after
// checking that the buffer.versions_live gauge says the same.
func liveVersions(t *testing.T, db *core.Database) int {
	t.Helper()
	n := db.Buffer().VersionCount()
	if g := db.Metrics().Gauge("buffer.versions_live").Value(); g != int64(n) {
		t.Fatalf("buffer.versions_live = %d, the chains hold %d versions", g, n)
	}
	return n
}

// TestVersionsDieAtCommit: a page version lives while a snapshot can read it
// and not a commit longer. A bulk load with no reader open keeps none — the
// pre-images of the pages it filled used to stay, one per page of the
// document, until some read-only transaction happened by — and neither do
// 300 update commits. With a reader open across the load and an update of
// the document it reads, the reader's answers do not move, and its versions
// go when it does. At every check the buffer.versions_live gauge equals the
// versions the chains hold.
func TestVersionsDieAtCommit(t *testing.T) {
	db := openBulkDB(t, core.Options{BufferPages: 1024})
	loadDoc(t, db, "base", xmlgen.LibraryString(300, 5))
	if n := liveVersions(t, db); n != 0 {
		t.Fatalf("%d page versions kept after a load nobody was reading beside", n)
	}
	for i := 0; i < 300; i++ {
		execUpdate(t, db, fmt.Sprintf(`UPDATE insert <x n="%d"/> into doc("base")/library`, i))
	}
	if n := liveVersions(t, db); n != 0 {
		t.Fatalf("%d page versions kept after 300 commits with no snapshot open", n)
	}

	reader, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	const q = `count(doc("base")//book)`
	want := queryIn(t, reader, q)
	loadDoc(t, db, "other", xmlgen.AuctionString(30, 60, 3, 9))
	if got := queryIn(t, reader, q); got != want {
		t.Fatalf("reader counts %s books during the load, %s before", got, want)
	}
	execUpdate(t, db, `UPDATE insert <book><title>late</title></book> into doc("base")/library`)
	if n := liveVersions(t, db); n == 0 {
		t.Fatal("no version kept for an open snapshot behind two commits")
	}
	if got := queryIn(t, reader, q); got != want {
		t.Fatalf("reader counts %s books after the update, %s before", got, want)
	}
	if got := runQuery(t, db, q); got == want {
		t.Fatalf("a new reader still counts %s books after the update", got)
	}
	reader.Rollback()
	if n := liveVersions(t, db); n != 0 {
		t.Fatalf("%d page versions kept after the last snapshot ended", n)
	}
}

// TestWholeDocumentPassesLeaveNoFootprint: the pass that reads every page of
// a document once at open — the recount — hands the pages it loads back, so
// it does not leave the document in the pool.
func TestWholeDocumentPassesLeaveNoFootprint(t *testing.T) {
	dir := t.TempDir()
	open := func(opts core.Options) *core.Database {
		t.Helper()
		opts.NoSync, opts.BufferPages = true, 2048
		db, err := core.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open(core.Options{})
	loadDoc(t, db, "big", bigAuction())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if n := dataPages(t, dir); n < 3*scanRing {
		t.Fatalf("document of %d pages: too small to tell a ring of %d from the whole", n, scanRing)
	}

	db = open(core.Options{})
	defer db.Close()
	if n := db.Buffer().FrameCount(); n > scanRing {
		t.Fatalf("%d frames in the pool after open, ring is %d", n, scanRing)
	}
}

// queryIn runs one statement inside tx and returns its serialized result.
func queryIn(t *testing.T, tx *core.Tx, src string) string {
	t.Helper()
	res, err := query.Execute(query.NewExecCtx(tx), src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	s, err := res.String()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func execUpdate(t *testing.T, db *core.Database, stmt string) {
	t.Helper()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	queryIn(t, tx, stmt)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}
