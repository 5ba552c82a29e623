package core_test

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sedna/internal/core"
	"sedna/internal/query"
	"sedna/internal/sas"
	"sedna/internal/storage"
	"sedna/internal/xmlgen"
)

// bulkCorpus is the document set the bulk loader is proven equivalent on:
// element-only trees, attribute-heavy trees, mixed content with comments and
// processing instructions, and a deep narrow tree that stresses NID depth.
var bulkCorpus = []struct {
	name    string
	xml     string
	queries []string
}{
	{"library", xmlgen.LibraryString(400, 7), []string{
		`count(doc("library")//book)`,
		`count(doc("library")//author)`,
		`doc("library")/library/book[year = "1999"]/title`,
	}},
	{"auction", xmlgen.AuctionString(25, 40, 3, 11), []string{
		`count(doc("auction")//bidder)`,
		`doc("auction")/site/people/person[@id = "p3"]/name`,
		`count(doc("auction")//item)`,
	}},
	{"deep", xmlgen.DeepString(8, 3), []string{
		`count(doc("deep")//n0)`,
		`count(doc("deep")//n2)`,
	}},
	{"mixed", `<cat lang="en" ver="2"><!-- head --><item id="a1">Alpha &amp; Beta</item><item id="a2"><sub>x</sub> tail text</item><?proc some data?><empty/></cat>`, []string{
		`count(doc("mixed")//item)`,
		`doc("mixed")/cat/item[@id = "a1"]`,
	}},
}

func openBulkDB(t *testing.T, opts core.Options) *core.Database {
	t.Helper()
	opts.NoSync = true
	if opts.BufferPages == 0 {
		opts.BufferPages = 256
	}
	db, err := core.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func loadDoc(t *testing.T, db *core.Database, name, content string) {
	t.Helper()
	loadWith(t, db, name, content, bulkLoad)
}

// loader is one way to ingest a document inside a transaction.
type loader func(tx *core.Tx, name string, r io.Reader) error

// bulkLoad is LoadXML: the streaming bulk loader.
func bulkLoad(tx *core.Tx, name string, r io.Reader) error {
	_, err := tx.LoadXML(name, r)
	return err
}

// nodeLoad creates the document and inserts its nodes one at a time — the
// reference the bulk loader must match byte for byte.
func nodeLoad(tx *core.Tx, name string, r io.Reader) error {
	doc, err := tx.CreateDocument(name)
	if err != nil {
		return err
	}
	return tx.LoadInto(doc, doc.RootHandle, r)
}

func loadWith(t *testing.T, db *core.Database, name, content string, load loader) {
	t.Helper()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := load(tx, name, strings.NewReader(content)); err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func serializeDoc(t *testing.T, db *core.Database, name string) string {
	t.Helper()
	tx, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	doc, err := tx.Document(name)
	if err != nil {
		t.Fatal(err)
	}
	root, err := storage.DescOf(tx.Tx, doc.RootHandle)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.SerializeNode(tx.Tx, doc, root, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func verifyDocT(t *testing.T, db *core.Database, name string) {
	t.Helper()
	tx, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	doc, err := tx.Document(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.VerifyDoc(tx.Tx, doc); err != nil {
		t.Fatalf("VerifyDoc(%s): %v", name, err)
	}
}

func runQuery(t *testing.T, db *core.Database, src string) string {
	t.Helper()
	tx, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	return queryIn(t, tx, src)
}

// TestBulkLoadEquivalence is the property test: every corpus document loaded
// through the bulk path serializes byte-identically to the node-at-a-time
// path, passes full structural verification (which includes strict NID
// document ordering), and answers the same queries.
func TestBulkLoadEquivalence(t *testing.T) {
	bulk := openBulkDB(t, core.Options{})
	incr := openBulkDB(t, core.Options{})
	for _, c := range bulkCorpus {
		loadDoc(t, bulk, c.name, c.xml)
		loadWith(t, incr, c.name, c.xml, nodeLoad)
		verifyDocT(t, bulk, c.name)
		verifyDocT(t, incr, c.name)
		if b, i := serializeDoc(t, bulk, c.name), serializeDoc(t, incr, c.name); b != i {
			t.Fatalf("%s: bulk and incremental serializations differ\nbulk: %.200s\nincr: %.200s", c.name, b, i)
		}
		for _, q := range c.queries {
			if b, i := runQuery(t, bulk, q), runQuery(t, incr, q); b != i {
				t.Fatalf("%s: query %s: bulk=%q incremental=%q", c.name, q, b, i)
			}
		}
	}
	if n := bulk.Metrics().Snapshot().Counters["load.bulk_loads"]; n != uint64(len(bulkCorpus)) {
		t.Fatalf("load.bulk_loads = %d, want %d", n, len(bulkCorpus))
	}
	if n := incr.Metrics().Snapshot().Counters["load.bulk_loads"]; n != 0 {
		t.Fatalf("load.bulk_loads = %d on the node-at-a-time database, want 0", n)
	}
}

// bulkLogRatio bounds the node-at-a-time load's WAL bytes on the 10000-book
// library from below, as a multiple of the bulk loader's: measured 10.0x
// (109.2 MB against 10.9 MB), less a fifth.
const bulkLogRatio = 8.0

// bulkPageRatio bounds the node-at-a-time load's written data pages on the
// same library, load and checkpoint, from below, as a multiple of the bulk
// loader's: measured 2.0x (1326 against 661), less a fifth.
const bulkPageRatio = 1.6

// TestBulkLoadWritesLess loads the 10000-book library into two fresh
// databases, through the bulk loader and node at a time, and checkpoints
// each. Each database counts into a registry of its own, so wal.append_bytes
// and pagefile.writes count one load and its checkpoint: whole-page images
// of blocks built in memory must log and write a fraction of what a node
// insert at a time does. Both must serialize the same document.
func TestBulkLoadWritesLess(t *testing.T) {
	content := xmlgen.LibraryString(10000, 42)
	type cost struct {
		walBytes, pages uint64
		out             string
	}
	measure := func(load loader) cost {
		db := openBulkDB(t, core.Options{BufferPages: 8192})
		loadWith(t, db, "d", content, load)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		m := db.Metrics()
		return cost{m.Counter("wal.append_bytes").Value(), m.Counter("pagefile.writes").Value(), serializeDoc(t, db, "d")}
	}
	bulk, nodes := measure(bulkLoad), measure(nodeLoad)
	if bulk.out != nodes.out {
		t.Fatal("bulk and node-at-a-time serializations differ")
	}
	walRatio := float64(nodes.walBytes) / float64(bulk.walBytes)
	pageRatio := float64(nodes.pages) / float64(bulk.pages)
	t.Logf("WAL bytes %d bulk, %d node at a time (%.1fx); pages written %d, %d (%.2fx)",
		bulk.walBytes, nodes.walBytes, walRatio, bulk.pages, nodes.pages, pageRatio)
	if walRatio < bulkLogRatio {
		t.Errorf("node at a time appends %.1fx the bulk loader's WAL bytes (%d vs %d), bound %.0fx", walRatio, nodes.walBytes, bulk.walBytes, bulkLogRatio)
	}
	if pageRatio < bulkPageRatio {
		t.Errorf("node at a time writes %.2fx the bulk loader's pages (%d vs %d), bound %.1fx", pageRatio, nodes.pages, bulk.pages, bulkPageRatio)
	}
}

// loadAllocPerPage bounds the bytes a bulk load allocates per page it
// flushes, in pages: the builder's own page and the load's per-node state.
// Handing each finished page to the pool and the log as it is measured 1.76;
// a WAL payload copy, a pool frame and a pre-image per page measured 4.89.
const loadAllocPerPage = 2.25

// loadReads bounds the pages read from the data file while a fresh document
// is bulk-loaded: a page allocated by extending the file is never read. A
// read per flushed page measured 328.
const loadReads = 8

// TestBulkLoadAllocations loads a 1000-person auction into a 2048-page pool
// and bounds what the load allocates per flushed page and what it reads from
// the data file.
func TestBulkLoadAllocations(t *testing.T) {
	content := xmlgen.AuctionString(1000, 1000, 5, 3)
	db := openBulkDB(t, core.Options{BufferPages: 2048})
	met := db.Metrics()
	flushed, reads := met.Counter("load.pages_flushed"), met.Counter("pagefile.reads")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	flushed0, reads0 := flushed.Value(), reads.Value()
	loadDoc(t, db, "auction", content)
	runtime.ReadMemStats(&after)
	pages := flushed.Value() - flushed0
	if pages == 0 {
		t.Fatal("the load flushed no pages")
	}
	perPage := float64(after.TotalAlloc-before.TotalAlloc) / float64(pages) / sas.PageSize
	read := reads.Value() - reads0
	t.Logf("%d pages flushed, %.2f x 16 KiB allocated per page (bound %.2f), %d pages read (bound %d)",
		pages, perPage, loadAllocPerPage, read, loadReads)
	if perPage > loadAllocPerPage {
		t.Errorf("the load allocated %.2f pages per flushed page, bound %.2f", perPage, loadAllocPerPage)
	}
	if read > loadReads {
		t.Errorf("the load read %d pages from the data file, bound %d", read, loadReads)
	}
}

// rollbackCheckpointWrites bounds the pages the checkpoint after a
// rolled-back load writes: the load's pages go back to the free list and
// are not written. Writing them back as zeros measures 328.
const rollbackCheckpointWrites = 8

// TestRolledBackLoadIsNotWrittenBack loads a 1000-person auction, rolls it
// back and bounds the page writes of the next checkpoint; the freed pages
// then take a fresh load.
func TestRolledBackLoadIsNotWrittenBack(t *testing.T) {
	content := xmlgen.AuctionString(1000, 1000, 5, 3)
	db := openBulkDB(t, core.Options{BufferPages: 2048})
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.LoadXML("auction", strings.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	met := db.Metrics()
	writes := met.Counter("pagefile.writes")
	writes0 := writes.Value()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wrote := writes.Value() - writes0
	t.Logf("load flushed %d pages; the checkpoint after its rollback wrote %d (bound %d)",
		met.Counter("load.pages_flushed").Value(), wrote, rollbackCheckpointWrites)
	if wrote > rollbackCheckpointWrites {
		t.Errorf("the checkpoint wrote %d pages, bound %d", wrote, rollbackCheckpointWrites)
	}
	loadDoc(t, db, "auction", content)
	verifyDocT(t, db, "auction")
}

// TestBulkLoadThenUpdate checks that the pre-spaced bulk NIDs leave room for
// ordinary node-at-a-time insertions afterwards, and that document order
// stays strict across the mix.
func TestBulkLoadThenUpdate(t *testing.T) {
	db := openBulkDB(t, core.Options{})
	loadDoc(t, db, "d", xmlgen.LibraryString(60, 3))
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		stmt := fmt.Sprintf(`UPDATE insert <book><title>new %d</title></book> into doc("d")/library`, i)
		if _, err := query.Execute(query.NewExecCtx(tx), stmt); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	verifyDocT(t, db, "d")
	if got := runQuery(t, db, `count(doc("d")//title[. = "new 7"])`); got != "1" {
		t.Fatalf("inserted title count = %s", got)
	}
}

// TestBulkLoadMalformedRollback feeds the loader XML that breaks mid-document
// and checks (a) the parse error carries the byte offset (and, on multi-line
// input, the line) of the failure and (b) rolling back leaves no trace of the partial document while earlier
// documents stay intact.
func TestBulkLoadMalformedRollback(t *testing.T) {
	for mode, load := range []loader{bulkLoad, nodeLoad} {
		db := openBulkDB(t, core.Options{})
		loadDoc(t, db, "keep", `<r><a>safe</a></r>`)

		// Enough well-formed prefix that the bulk path has real blocks in
		// flight, then a mismatched close tag.
		bad := `<r>` + strings.Repeat(`<item><k>v</k></item>`, 500) + `</wrong>`
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		err = load(tx, "bad", strings.NewReader(bad))
		if err == nil {
			t.Fatalf("mode %d: malformed load succeeded", mode)
		}
		if !strings.Contains(err.Error(), "at byte") {
			t.Fatalf("mode %d: parse error lacks byte offset: %v", mode, err)
		}
		tx.Rollback()

		// Multi-line inputs: the error names the byte offset just past the
		// failing markup and its line, as encoding/xml reported them.
		for _, c := range []struct{ in, want string }{
			{"<r>\n  <item><k>v</k></item>\n  <item><k>v</wrong></item>\n</r>\n", "at byte 48 (line 3)"},
			{"<r>\n  <item>a &bogus; b</item>\n</r>\n", "at byte 21 (line 2)"},
		} {
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			err = load(tx, "pos", strings.NewReader(c.in))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("mode %d: %q: error %v, want one %q", mode, c.in, err, c.want)
			}
			tx.Rollback()
		}

		rtx, _ := db.BeginReadOnly()
		if _, err := rtx.Document("bad"); err == nil {
			t.Fatalf("mode %d: partial document visible after rollback", mode)
		}
		rtx.Rollback()
		verifyDocT(t, db, "keep")
		if got := runQuery(t, db, `count(doc("keep")/r/a)`); got != "1" {
			t.Fatalf("mode %d: keep damaged: %s", mode, got)
		}

		// The name must be reusable after the rollback.
		loadDoc(t, db, "bad", `<r><ok/></r>`)
		verifyDocT(t, db, "bad")
	}
}

// TestBulkLoadConcurrentReaders runs snapshot readers over existing documents
// while a large bulk load is in flight (run under -race in CI): the load must
// not disturb concurrent reads, and both documents verify afterwards.
func TestBulkLoadConcurrentReaders(t *testing.T) {
	db := openBulkDB(t, core.Options{BufferPages: 512})
	loadDoc(t, db, "base", xmlgen.LibraryString(200, 5))
	want := runQuery(t, db, `count(doc("base")//book)`)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := db.BeginReadOnly()
				if err != nil {
					errs <- err
					return
				}
				res, err := query.Execute(query.NewExecCtx(tx), `count(doc("base")//book)`)
				if err == nil {
					var got string
					if got, err = res.String(); err == nil && got != want {
						err = fmt.Errorf("reader saw %s books, want %s", got, want)
					}
				}
				tx.Rollback()
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	loadDoc(t, db, "big", xmlgen.AuctionString(60, 120, 4, 9))
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	verifyDocT(t, db, "base")
	verifyDocT(t, db, "big")
}

// TestBulkLoadCrashInjection kills the database after K flushed pages of a
// bulk load (no rollback — simulating process death mid-load) and proves
// whole-document-or-none recovery: the in-flight document is gone, earlier
// committed documents are intact. The final leg crashes after the commit and
// proves the whole document survives.
func TestBulkLoadCrashInjection(t *testing.T) {
	big := xmlgen.LibraryString(800, 13)
	for _, k := range []uint64{1, 3, 7} {
		k := k
		t.Run(fmt.Sprintf("kill-after-%d-pages", k), func(t *testing.T) {
			dir := t.TempDir()
			db, err := core.Open(dir, core.Options{NoSync: true, BufferPages: 256})
			if err != nil {
				t.Fatal(err)
			}
			loadDoc(t, db, "keep", `<r><a>1</a><b>2</b></r>`)

			core.SetBulkFlushHookForTesting(func(pages uint64) error {
				if pages >= k {
					return fmt.Errorf("injected crash after %d pages", pages)
				}
				return nil
			})
			defer core.SetBulkFlushHookForTesting(nil)

			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx.LoadXML("big", strings.NewReader(big)); err == nil {
				t.Fatal("injected flush failure did not abort the load")
			}
			// No rollback: die with the transaction open and its page
			// images in the log.
			db.CrashForTesting()
			core.SetBulkFlushHookForTesting(nil)

			db2, err := core.Open(dir, core.Options{NoSync: true, BufferPages: 256})
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer db2.Close()
			rtx, _ := db2.BeginReadOnly()
			if _, err := rtx.Document("big"); err == nil {
				t.Fatal("half-loaded document visible after crash recovery")
			}
			rtx.Rollback()
			verifyDocT(t, db2, "keep")
			if got := runQuery(t, db2, `count(doc("keep")/r/*)`); got != "2" {
				t.Fatalf("keep after recovery: %s nodes", got)
			}
		})
	}

	t.Run("commit-then-crash", func(t *testing.T) {
		dir := t.TempDir()
		db, err := core.Open(dir, core.Options{NoSync: true, BufferPages: 256})
		if err != nil {
			t.Fatal(err)
		}
		loadDoc(t, db, "big", big)
		want := runQuery(t, db, `count(doc("big")//book)`)
		db.CrashForTesting()

		db2, err := core.Open(dir, core.Options{NoSync: true, BufferPages: 256})
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		defer db2.Close()
		verifyDocT(t, db2, "big")
		if got := runQuery(t, db2, `count(doc("big")//book)`); got != want {
			t.Fatalf("recovered %s books, want %s", got, want)
		}
	})
}
