package core_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"sedna/internal/core"
	"sedna/internal/query"
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
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.LoadXML(name, strings.NewReader(content)); err != nil {
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
// document ordering), and answers the same queries — serially and with
// 4-worker intra-query parallelism.
func TestBulkLoadEquivalence(t *testing.T) {
	bulk := openBulkDB(t, core.Options{QueryWorkers: 4})
	incr := openBulkDB(t, core.Options{QueryWorkers: 4, BulkLoad: core.BulkLoadOff})
	for _, c := range bulkCorpus {
		loadDoc(t, bulk, c.name, c.xml)
		loadDoc(t, incr, c.name, c.xml)
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
	// Serial executor pass over the same pair: results must not depend on
	// the worker budget either.
	serial := openBulkDB(t, core.Options{QueryWorkers: 1})
	for _, c := range bulkCorpus {
		loadDoc(t, serial, c.name, c.xml)
		for _, q := range c.queries {
			if s, b := runQuery(t, serial, q), runQuery(t, bulk, q); s != b {
				t.Fatalf("%s: query %s: serial=%q parallel=%q", c.name, q, s, b)
			}
		}
	}
	if n := bulk.Metrics().Snapshot().Counters["load.bulk_loads"]; n != uint64(len(bulkCorpus)) {
		t.Fatalf("load.bulk_loads = %d, want %d", n, len(bulkCorpus))
	}
	if n := incr.Metrics().Snapshot().Counters["load.incremental_loads"]; n != uint64(len(bulkCorpus)) {
		t.Fatalf("load.incremental_loads = %d, want %d", n, len(bulkCorpus))
	}
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
// and checks (a) the parse error carries the byte offset of the failure and
// (b) rolling back leaves no trace of the partial document while earlier
// documents stay intact.
func TestBulkLoadMalformedRollback(t *testing.T) {
	for _, mode := range []core.BulkLoadMode{core.BulkLoadAuto, core.BulkLoadOff} {
		db := openBulkDB(t, core.Options{BulkLoad: mode})
		loadDoc(t, db, "keep", `<r><a>safe</a></r>`)

		// Enough well-formed prefix that the bulk path has real blocks in
		// flight, then a mismatched close tag.
		bad := `<r>` + strings.Repeat(`<item><k>v</k></item>`, 500) + `</wrong>`
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		_, err = tx.LoadXML("bad", strings.NewReader(bad))
		if err == nil {
			t.Fatalf("mode %d: malformed load succeeded", mode)
		}
		if !strings.Contains(err.Error(), "at byte") {
			t.Fatalf("mode %d: parse error lacks byte offset: %v", mode, err)
		}
		tx.Rollback()

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
