package core_test

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sedna/internal/core"
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
// so a parallel scan over a document several times the pool must keep
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

	roomy := openBulkDB(t, core.Options{BufferPages: 2048, QueryWorkers: 4})
	loadDoc(t, roomy, "big", xml)
	want := answers(roomy, len(queries))

	tight := openBulkDB(t, core.Options{BufferPages: pool, QueryWorkers: 4})
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
	if after["query.parallel_steps"] == before["query.parallel_steps"] {
		t.Fatal("no step ran in parallel")
	}
	if n := after["buffer.snapshot_reads"] - before["buffer.snapshot_reads"]; n != 0 {
		t.Fatalf("%d views served from version chains with no writer around", n)
	}
}

// TestVersionsDieAtCommit: a page version lives while a snapshot can read it
// and not a commit longer. A bulk load with no reader open keeps none — the
// pre-images of the pages it filled used to stay, one per page of the
// document, until some read-only transaction happened by. With a reader open
// across the load and an update of the document it reads, the reader's
// answers do not move, and its versions go when it does.
func TestVersionsDieAtCommit(t *testing.T) {
	db := openBulkDB(t, core.Options{BufferPages: 1024})
	loadDoc(t, db, "base", xmlgen.LibraryString(300, 5))
	if n := db.Buffer().VersionCount(); n != 0 {
		t.Fatalf("%d page versions kept after a load nobody was reading beside", n)
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
	if n := db.Buffer().VersionCount(); n == 0 {
		t.Fatal("no version kept for an open snapshot behind two commits")
	}
	if got := queryIn(t, reader, q); got != want {
		t.Fatalf("reader counts %s books after the update, %s before", got, want)
	}
	if got := runQuery(t, db, q); got == want {
		t.Fatalf("a new reader still counts %s books after the update", got)
	}
	reader.Rollback()
	if n := db.Buffer().VersionCount(); n != 0 {
		t.Fatalf("%d page versions kept after the last snapshot ended", n)
	}
}

// TestWholeDocumentPassesLeaveNoFootprint: the two passes that read every
// page of a document once — the recount at open, the resident build — hand
// the pages they load back, so neither leaves the document in the pool.
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

	db = open(core.Options{Resident: true})
	defer db.Close()
	recount := db.Buffer().FrameCount()
	if recount > scanRing {
		t.Fatalf("%d frames resident after open, ring is %d", recount, scanRing)
	}
	const q = `count(doc("big")//bidder)`
	want := runQuery(t, db, q)
	if n := db.Metrics().Snapshot().Counters["resident.builds"]; n != 1 {
		t.Fatalf("resident.builds = %d after the first statement", n)
	}
	if n := db.Buffer().FrameCount(); n > recount {
		t.Fatalf("%d frames resident after the resident build, %d before it", n, recount)
	}
	db.SetResident(false)
	if got := runQuery(t, db, q); got != want {
		t.Fatalf("paged answer %s, resident answer %s", got, want)
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
