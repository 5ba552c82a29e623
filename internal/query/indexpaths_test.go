package query

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"sedna/internal/core"
	"sedna/internal/xmlgen"
)

// errReparsed fails a Paths call that would parse an index's paths again.
var errReparsed = errors.New("index paths parsed a second time")

func noReparse(string, string) (any, error) { return nil, errReparsed }

// requireParsedOnce fails the test unless the published index holds its
// parsed paths, so that no statement parses them again.
func requireParsedOnce(t *testing.T, db *core.Database, name string) {
	t.Helper()
	meta, ok := db.Catalog().Index(name)
	if !ok {
		t.Fatalf("index %q is not published", name)
	}
	if _, err := meta.Paths(noReparse); err != nil {
		t.Fatalf("index %q: %v", name, err)
	}
}

// TestIndexOverLaterSchemaNodes: the ON path is resolved over the schema on
// every statement, so a node of a schema node created after CREATE INDEX is
// indexed, found and unindexed like the rest, while the parse stays the one
// made at CREATE INDEX.
func TestIndexOverLaterSchemaNodes(t *testing.T) {
	db := testDB(t)
	upd(t, db, `CREATE INDEX "anybook" ON doc("lib")//book BY author AS string`)
	requireParsedOnce(t, db, "anybook")
	upd(t, db, `UPDATE insert <shelf><book><title>Later</title><author>Knuth</author></book></shelf> into doc("lib")/library`)
	if got := q(t, db, `index-scan("anybook", "Knuth")/title/text()`); got != "Later" {
		t.Fatalf("book under a new schema node: index-scan gives %q", got)
	}
	upd(t, db, `UPDATE insert <author>Yao</author> into doc("lib")/library/shelf/book`)
	if got := q(t, db, `index-scan("anybook", "Yao")/title/text()`); got != "Later" {
		t.Fatalf("author added under a new schema node: index-scan gives %q", got)
	}
	upd(t, db, `UPDATE delete doc("lib")/library/shelf`)
	if got := q(t, db, `count(index-scan("anybook", "Knuth"))`); got != "0" {
		t.Fatalf("deleted book still indexed: %s", got)
	}
	if got := q(t, db, `index-scan("anybook", "Date")/title/text()`); got != "An Introduction to Database Systems" {
		t.Fatalf("loaded book: index-scan gives %q", got)
	}
	requireParsedOnce(t, db, "anybook")
}

// TestIndexRecreatedWithOtherPath: DROP INDEX and a CREATE INDEX of the same
// name over another BY path publish a new index; nothing of the old path is
// kept.
func TestIndexRecreatedWithOtherPath(t *testing.T) {
	db := testDB(t)
	upd(t, db, `CREATE INDEX "ix" ON doc("lib")/library/book BY author AS string`)
	if got := q(t, db, `index-scan("ix", "Date")/title/text()`); got != "An Introduction to Database Systems" {
		t.Fatalf("BY author: %q", got)
	}
	upd(t, db, `DROP INDEX "ix"`)
	upd(t, db, `CREATE INDEX "ix" ON doc("lib")/library/book BY title AS string`)
	if got := q(t, db, `count(index-scan("ix", "Date"))`); got != "0" {
		t.Fatalf("recreated index still keys by author: %s", got)
	}
	if got := q(t, db, `index-scan("ix", "Foundations of Databases")/author[1]/text()`); got != "Abiteboul" {
		t.Fatalf("BY title: %q", got)
	}
	upd(t, db, `UPDATE insert <book><title>New</title><author>Gray</author></book> into doc("lib")/library`)
	if got := q(t, db, `index-scan("ix", "New")/author/text()`); got != "Gray" {
		t.Fatalf("insert maintained under the new path: %q", got)
	}
	if got := q(t, db, `count(index-scan("ix", "Gray"))`); got != "0" {
		t.Fatalf("insert maintained under the old path: %s", got)
	}
}

// TestIndexCreateRolledBack: a CREATE INDEX that rolls back publishes
// nothing — no catalog entry, no maintenance on later updates — and the name
// can be created again.
func TestIndexCreateRolledBack(t *testing.T) {
	db := testDB(t)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(NewExecCtx(tx), `CREATE INDEX "ix" ON doc("lib")/library/book BY author AS string`); err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(NewExecCtx(tx), `index-scan("ix", "Date")`); err != nil {
		t.Fatalf("index not visible to its own transaction: %v", err)
	}
	tx.Rollback()
	if _, ok := db.Catalog().Index("ix"); ok {
		t.Fatal("rolled-back index is still in the catalog")
	}
	if n := len(db.Catalog().IndexesOf("lib")); n != 0 {
		t.Fatalf("%d indexes on lib after the rollback", n)
	}
	upd(t, db, `UPDATE insert <book><title>New</title><author>Gray</author></book> into doc("lib")/library`)
	rtx, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Execute(NewExecCtx(rtx), `index-scan("ix", "Date")`)
	rtx.Rollback()
	if err == nil {
		t.Fatal("rolled-back index answers index-scan")
	}
	upd(t, db, `CREATE INDEX "ix" ON doc("lib")/library/book BY title AS string`)
	if got := q(t, db, `index-scan("ix", "New")/author/text()`); got != "Gray" {
		t.Fatalf("index created after the rollback: %q", got)
	}
}

// restartAuction loads an Auction document with an index over the auction
// ids, ANALYZEs it and closes the database, so the next Open loads the index
// from the catalog snapshot with its paths not yet parsed.
func restartAuction(t *testing.T, dir string, auctions int) {
	t.Helper()
	db, err := core.Open(dir, core.Options{NoSync: true, BufferPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.LoadXML("auction", strings.NewReader(xmlgen.AuctionString(50, auctions, 3, 1))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	upd(t, db, auctionIDIndex)
	upd(t, db, `ANALYZE doc("auction")`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkAuctionIndex inserts an auction with a new id, finds it through the
// optimizer's probe, through a scan and through index-scan, then deletes it
// by its id and finds it gone from the index.
func checkAuctionIndex(t *testing.T, db *core.Database, id string) {
	t.Helper()
	upd(t, db, fmt.Sprintf(`UPDATE insert <open_auction id="%s"><initial>7</initial></open_auction> into doc("auction")/site/open_auctions`, id))
	probes := db.Metrics().Snapshot().Counters["opt.index_probes"]
	lookup := fmt.Sprintf(`doc("auction")/site/open_auctions/open_auction[@id = "%s"]/initial/text()`, id)
	for _, noopt := range []bool{false, true} {
		if got := qset(t, db, lookup, func(ctx *ExecCtx) { ctx.NoOpt = noopt }); got != "7" {
			t.Fatalf("%s (noopt=%v): %q", id, noopt, got)
		}
	}
	if db.Metrics().Snapshot().Counters["opt.index_probes"] == probes {
		t.Fatalf("%s: the optimized lookup did not probe the index", id)
	}
	if got := q(t, db, fmt.Sprintf(`index-scan("auction_id", "%s")/initial/text()`, id)); got != "7" {
		t.Fatalf("%s: index-scan gives %q", id, got)
	}
	if got := q(t, db, `count(index-scan("auction_id", "a3"))`); got != "1" {
		t.Fatalf("loaded auction a3: index-scan counts %s", got)
	}
	upd(t, db, fmt.Sprintf(`UPDATE delete doc("auction")/site/open_auctions/open_auction[@id = "%s"]`, id))
	if got := q(t, db, fmt.Sprintf(`count(index-scan("auction_id", "%s"))`, id)); got != "0" {
		t.Fatalf("%s: deleted auction still indexed: %s", id, got)
	}
	requireParsedOnce(t, db, "auction_id")
}

// TestIndexPathsAcrossRestart: an index loaded from the catalog snapshot
// after a reopen, and one recreated by crash recovery from the log, are
// maintained and probed like the index CREATE INDEX published.
func TestIndexPathsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	restartAuction(t, dir, 200)

	db, err := core.Open(dir, core.Options{NoSync: true, BufferPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	checkAuctionIndex(t, db, "reopened")
	// An index created after the last checkpoint comes back from the log.
	upd(t, db, `CREATE INDEX "initial_v" ON doc("auction")/site/open_auctions/open_auction BY initial AS number`)
	upd(t, db, `UPDATE insert <open_auction id="logged"><initial>123456</initial></open_auction> into doc("auction")/site/open_auctions`)
	db.CrashForTesting()

	db, err = core.Open(dir, core.Options{NoSync: true, BufferPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	checkAuctionIndex(t, db, "recovered")
	if got := q(t, db, `data(index-scan("initial_v", 123456)/@id)`); got != "logged" {
		t.Fatalf("index recovered from the log: %q", got)
	}
	upd(t, db, `UPDATE insert <open_auction id="after"><initial>654321</initial></open_auction> into doc("auction")/site/open_auctions`)
	if got := q(t, db, `data(index-scan("initial_v", 654321)/@id)`); got != "after" {
		t.Fatalf("index recovered from the log, maintained after: %q", got)
	}
	requireParsedOnce(t, db, "initial_v")
}

// TestIndexPathsUnderConcurrency runs two updaters and two probing readers
// on one index whose paths the reopen left unparsed, so the first parse
// races; run under -race.
func TestIndexPathsUnderConcurrency(t *testing.T) {
	dir := t.TempDir()
	restartAuction(t, dir, 200)
	db, err := core.Open(dir, core.Options{NoSync: true, BufferPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const rounds = 30
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	run := func(f func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := f(i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		run(func(i int) error {
			tx, err := db.Begin()
			if err != nil {
				return err
			}
			src := fmt.Sprintf(`UPDATE insert <open_auction id="w%d-%d"><initial>%d</initial></open_auction> into doc("auction")/site/open_auctions`, w, i, i)
			if i%2 == 1 {
				src = fmt.Sprintf(`UPDATE replace $c in doc("auction")/site/open_auctions/open_auction[@id = "w%d-%d"]/initial with <initial>%d</initial>`, w, i-1, 1000+i)
			}
			res, err := Execute(NewExecCtx(tx), src)
			if err == nil && res.Updated != 1 {
				err = fmt.Errorf("%s: %d updated, want 1", src, res.Updated)
			}
			if err != nil {
				tx.Rollback()
				return err
			}
			return tx.Commit()
		})
	}
	for r := 0; r < 2; r++ {
		run(func(i int) error {
			tx, err := db.BeginReadOnly()
			if err != nil {
				return err
			}
			defer tx.Rollback()
			src := fmt.Sprintf(`count(doc("auction")/site/open_auctions/open_auction[@id = "a%d"])`, (7*i+r)%200)
			if r == 1 {
				src = fmt.Sprintf(`count(index-scan("auction_id", "a%d"))`, (7*i+r)%200)
			}
			res, err := Execute(NewExecCtx(tx), src)
			if err != nil {
				return err
			}
			if s, err := res.String(); err != nil || s != "1" {
				return fmt.Errorf("%s = %q (%v), want 1", src, s, err)
			}
			return nil
		})
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for w := 0; w < 2; w++ {
		if got := q(t, db, fmt.Sprintf(`index-scan("auction_id", "w%d-%d")/initial/text()`, w, rounds-2)); got != fmt.Sprint(1000+rounds-1) {
			t.Errorf("writer %d's last auction through the index: %q", w, got)
		}
	}
	requireParsedOnce(t, db, "auction_id")
}

// TestIndexedCorpusIdentity runs the identity corpus over indexed, ANALYZEd
// documents — the optimizer probes the indexes where a predicate matches a
// BY path — with the optimizer and the rewriter each on and off, at batch
// capacities 1, 3 and the default: every answer stays the recorded one.
func TestIndexedCorpusIdentity(t *testing.T) {
	db := corpusDB(t)
	for _, ddl := range []string{
		`CREATE INDEX "cat_value" ON doc("cat")//item BY value AS number`,
		`CREATE INDEX "biglib_year" ON doc("biglib")//book BY year AS number`,
		`CREATE INDEX "site_age" ON doc("site")//person BY profile/age AS number`,
	} {
		upd(t, db, ddl)
	}
	for _, name := range []string{"cat", "biglib", "site"} {
		upd(t, db, fmt.Sprintf(`ANALYZE doc(%q)`, name))
	}
	for _, capacity := range []int{1, 3, batchCap} {
		t.Run(fmt.Sprint("capacity=", capacity), func(t *testing.T) {
			forceBatchCap(t, capacity)
			for _, noopt := range []bool{false, true} {
				for _, norewrite := range []bool{false, true} {
					checkCorpus(t, db, func(ctx *ExecCtx) { ctx.NoOpt, ctx.NoRewrite = noopt, norewrite })
				}
			}
		})
	}
	if db.Metrics().Snapshot().Counters["opt.index_probes"] == 0 {
		t.Fatal("no corpus query probed an index")
	}
}
