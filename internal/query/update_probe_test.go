package query

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"sedna/internal/core"
	"sedna/internal/storage"
	"sedna/internal/xmlgen"
)

const auctionIDIndex = `CREATE INDEX "auction_id" ON doc("auction")/site/open_auctions/open_auction BY @id AS string`

// auctionDB opens a database holding one ANALYZEd Auction document with a
// value index over open_auction/@id — the shape an update addresses by key.
// (Without statistics the cost model keeps the scan on lists this short.)
func auctionDB(t *testing.T, auctions int) *core.Database {
	t.Helper()
	return indexedAuction(t, xmlgen.AuctionString(50, auctions, 3, 1), true)
}

// indexedAuction loads content as document "auction", indexes it by
// open_auction/@id and, when analyze is set, ANALYZEs it.
func indexedAuction(t *testing.T, content string, analyze bool) *core.Database {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true, BufferPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.LoadXML("auction", strings.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	upd(t, db, auctionIDIndex)
	if analyze {
		upd(t, db, `ANALYZE doc("auction")`)
	}
	return db
}

func auctionByID(k int) string {
	return fmt.Sprintf(`doc("auction")/site/open_auctions/open_auction[@id = "a%d"]`, k)
}

// execIn runs one statement inside an open transaction.
func execIn(t *testing.T, tx *core.Tx, src string, noopt bool) *Result {
	t.Helper()
	ctx := NewExecCtx(tx)
	ctx.NoOpt = noopt
	res, err := Execute(ctx, src)
	if err != nil {
		t.Fatalf("statement %q: %v", src, err)
	}
	return res
}

var targetStepPages = regexp.MustCompile(`step child::open_auction .*pages=(\d+)`)

// TestUpdateTargetProbe: an update whose target is an indexed equality goes
// through the value index — EXPLAIN says so with the costed alternatives,
// also before ANALYZE and once the statistics are stale, where the
// equality's row estimate is only the default tenth of the auctions;
// PROFILE shows the probe span and a target selection that touches tens of
// pages, at most a quarter of what the scan touches: the scan reads the
// auctions' ids where they lie, batchCap candidates per walk, and decodes
// only the one that passes (35 views), and the probe reads 6.
func TestUpdateTargetProbe(t *testing.T) {
	stmt := `UPDATE replace $c in ` + auctionByID(700) + `/current with <current>42</current>`
	explains := func(db *core.Database, state string) {
		t.Helper()
		out := q(t, db, `EXPLAIN `+stmt)
		for _, want := range []string{"plan=index-probe", "costs:", "index-probe", "structural-scan", "✓"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s document: EXPLAIN of the update missing %q:\n%s", state, want, out)
			}
		}
	}
	content := xmlgen.AuctionString(50, 1000, 3, 1)
	explains(indexedAuction(t, content, false), "never analyzed")
	db := indexedAuction(t, content, true)
	explains(db, "analyzed")

	targetPages := func(noopt bool) (int, string) {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Rollback()
		s, err := execIn(t, tx, `PROFILE `+stmt, noopt).String()
		if err != nil {
			t.Fatal(err)
		}
		m := targetStepPages.FindStringSubmatch(s)
		if m == nil {
			t.Fatalf("PROFILE has no open_auction step with a page count:\n%s", s)
		}
		n, _ := strconv.Atoi(m[1])
		return n, s
	}
	probed, out := targetPages(false)
	if !strings.Contains(out, "index-probe auction_id") {
		t.Errorf("PROFILE of the update has no index-probe span:\n%s", out)
	}
	if !strings.Contains(out, "1 updated") {
		t.Errorf("probed update did not find its target:\n%s", out)
	}
	scanned, _ := targetPages(true)
	if probed >= 100 || scanned < 4*probed {
		t.Fatalf("target selection touched %d pages probed, %d scanned; want tens, and at most a quarter of the scan's", probed, scanned)
	}

	// Count as many commits as the document had nodes at ANALYZE: five
	// times that is past the staleness threshold.
	cat := db.Catalog()
	cat.Activity("auction").Updates.Add(cat.DocStats("auction").AnalyzedNodes)
	if !cat.DocStats("auction").Stale(cat.Activity("auction").Updates.Load()) {
		t.Fatal("statistics still fresh after the counted commits")
	}
	explains(db, "stale")
}

// TestUpdateProbeMatchesScan is the update-side byte-identity gate: one
// statement stream of keyed inserts, replaces and deletes, run with the
// optimizer on and off, must leave identical documents and identical
// per-statement update counts.
func TestUpdateProbeMatchesScan(t *testing.T) {
	const auctions = 120
	run := func(noopt bool) (string, []int) {
		db := auctionDB(t, auctions)
		rng := rand.New(rand.NewSource(5))
		var counts []int
		marker := 0
		for i := 0; i < 150; i++ {
			k := rng.Intn(auctions + 10) // a few keys match nothing
			var src string
			switch rng.Intn(4) {
			case 0:
				src = fmt.Sprintf(`UPDATE replace $c in %s/current with <current>%d</current>`, auctionByID(k), i)
			case 1:
				src = fmt.Sprintf(`UPDATE delete %s/bidder[increase = %d]`, auctionByID(k), rng.Intn(marker+1))
			default:
				marker++
				src = fmt.Sprintf(`UPDATE insert <bidder><increase>%d</increase></bidder> into %s`, marker, auctionByID(k))
			}
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			counts = append(counts, execIn(t, tx, src, noopt).Updated)
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if probes := db.Metrics().Snapshot().Counters["opt.index_probes"]; (probes == 0) != noopt {
			t.Fatalf("noopt=%v but opt.index_probes=%d", noopt, probes)
		}
		verifyAuction(t, db)
		return q(t, db, `doc("auction")`), counts
	}
	scanDoc, scanCounts := run(true)
	probeDoc, probeCounts := run(false)
	if fmt.Sprint(scanCounts) != fmt.Sprint(probeCounts) {
		t.Fatalf("update counts diverge\n scan: %v\nprobe: %v", scanCounts, probeCounts)
	}
	if scanDoc != probeDoc {
		t.Fatal("documents diverge between probed and scanned update targets")
	}
}

// hotOtherPages bounds the page views of a keyed replace or delete on the
// hot document: the index probe for the target, the removed subtree, and for
// a replace the new <current> and the list position of its text node —
// measured 147 when the bound was set, plus a quarter (146.8 here).
const hotOtherPages = 184

// hotInsertPages bounds the page views of a keyed insert on the hot
// document: the target as above plus the list positions of the new bidder's
// nodes, each found through its parent in a few descriptor peeks — measured
// 198 when the bound was set, plus a quarter (181.1 here).
const hotInsertPages = 247

// hotColdInsertPages bounds the page views of a keyed insert while the
// document is fresh from the bulk loader, which packs blocks full: the first
// insert into such a block splits it, moving a bounded tail of the block.
// Measured 207.5 over the stream's first 1000 statements, plus a quarter.
const hotColdInsertPages = 259

// hotStream is what a keyed update stream counted: the page views
// (Profile.PagesTouched) of its inserts and of its replaces and deletes.
type hotStream struct {
	inserts, others         int
	insertPages, otherPages uint64
}

func (h hotStream) perInsert() float64 { return float64(h.insertPages) / float64(max(h.inserts, 1)) }
func (h hotStream) perOther() float64  { return float64(h.otherPages) / float64(max(h.others, 1)) }

// TestUpdatePagesOnHotDocument runs seeded keyed streams over an indexed,
// ANALYZEd 2000-auction document, one auto-commit statement at a time: half
// insert a bidder into a random auction, three tenths replace an auction's
// <current>, a fifth delete the bidder inserted last. The first 1000
// statements, on the fresh document, split its packed blocks: an insert
// there views at most hotColdInsertPages pages. Over the next 400 a replace
// or delete views at most hotOtherPages pages and an insert at most
// hotInsertPages: neither the target nor a list position costs
// O(document). (That the probe, not a scan, finds the target is
// TestUpdateTargetProbe's gate.) Every statement updates exactly one node,
// and afterwards the document verifies and holds the bidders the stream
// acknowledged.
func TestUpdatePagesOnHotDocument(t *testing.T) {
	const auctions = 2000
	db := indexedAuction(t, xmlgen.AuctionString(auctions, auctions, 5, 42), true)
	want := bidderCount(t, db)
	stream := func(statements int, seed int64) hotStream {
		var h hotStream
		rng := rand.New(rand.NewSource(seed))
		lastKey, lastMarker := -1, 0
		for i := 0; i < statements; i++ {
			k := rng.Intn(auctions)
			marker := 1_000_000*int(seed) + i // unique across streams
			var src string
			delta := 0 // bidders the statement adds
			switch mix := rng.Intn(10); {
			case mix < 5:
				src = fmt.Sprintf(`UPDATE insert <bidder><personref person="p%d"/><increase>%d</increase></bidder> into %s`, rng.Intn(auctions), marker, auctionByID(k))
				delta = 1
			case mix < 8 || lastKey < 0:
				src = fmt.Sprintf(`UPDATE replace $c in %s/current with <current>%d</current>`, auctionByID(k), marker)
			default:
				src = fmt.Sprintf(`UPDATE delete %s/bidder[increase = %d]`, auctionByID(lastKey), lastMarker)
				delta = -1
			}
			ctx := commitOne(t, db, src)
			want += delta
			switch delta {
			case 1:
				h.inserts++
				h.insertPages += ctx.Profile.PagesTouched
				lastKey, lastMarker = k, marker
			case -1:
				lastKey = -1
				fallthrough
			default:
				h.others++
				h.otherPages += ctx.Profile.PagesTouched
			}
		}
		return h
	}
	cold := stream(1000, 3)
	hot := stream(400, 1)
	t.Logf("page views per insert: %.1f on the fresh document (%d statements), %.1f after; per replace or delete: %.1f, %.1f",
		cold.perInsert(), cold.inserts+cold.others, hot.perInsert(), cold.perOther(), hot.perOther())
	if p := cold.perInsert(); p > hotColdInsertPages {
		t.Errorf("%.1f page views per insert on the fresh document, bound %d", p, hotColdInsertPages)
	}
	if p := hot.perOther(); p > hotOtherPages {
		t.Errorf("%.1f page views per replace or delete, bound %d", p, hotOtherPages)
	}
	if p := hot.perInsert(); p > hotInsertPages {
		t.Errorf("%.1f page views per insert, bound %d", p, hotInsertPages)
	}
	verifyAuction(t, db)
	if got := bidderCount(t, db); got != want {
		t.Fatalf("%d bidders stored, %d acknowledged", got, want)
	}
}

// bidderCount counts the bidders of the auction document.
func bidderCount(t *testing.T, db *core.Database) int {
	t.Helper()
	n, err := strconv.Atoi(q(t, db, `count(doc("auction")//bidder)`))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// commitOne runs src as one auto-commit statement, which must update exactly
// one node, and returns its context, whose Profile describes the statement.
func commitOne(t *testing.T, db *core.Database, src string) *ExecCtx {
	t.Helper()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewExecCtx(tx)
	res, err := Execute(ctx, src)
	if err == nil && res.Updated != 1 {
		err = fmt.Errorf("%d updated, want 1", res.Updated)
	}
	if err != nil {
		tx.Rollback()
		t.Fatalf("%s: %v", src, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return ctx
}

// firstInsertPages bounds the page views of any one of the first keyed
// inserts into a document fresh from the bulk loader, which packs every
// block full: the insert that meets a packed block splits it, and the split
// moves a bounded tail of the block. Measured 495, plus a quarter.
const firstInsertPages = 619

// firstInsertAppends bounds the log records an insert appends, on average
// over the same stream, commit record included. Measured 118.6, plus a
// quarter.
const firstInsertAppends = 148

// TestFirstInsertsIntoPackedBlocks runs 200 seeded keyed bidder inserts into
// a fresh, indexed, ANALYZEd 2000-auction document, one auto-commit
// statement each, so many of them split a block the bulk loader packed. No
// insert views more than firstInsertPages pages, the stream appends at most
// firstInsertAppends log records per insert, and afterwards the document
// verifies and holds the bidders it acknowledged.
func TestFirstInsertsIntoPackedBlocks(t *testing.T) {
	const auctions, inserts = 2000, 200
	db := indexedAuction(t, xmlgen.AuctionString(auctions, auctions, 5, 42), true)
	before := bidderCount(t, db)
	appends := func() uint64 { return db.Metrics().Snapshot().Counters["wal.appends"] }
	rng := rand.New(rand.NewSource(9))
	var maxPages, sumPages uint64
	appends0 := appends()
	for i := 0; i < inserts; i++ {
		src := fmt.Sprintf(`UPDATE insert <bidder><personref person="p%d"/><increase>%d</increase></bidder> into %s`,
			rng.Intn(auctions), i, auctionByID(rng.Intn(auctions)))
		ctx := commitOne(t, db, src)
		sumPages += ctx.Profile.PagesTouched
		maxPages = max(maxPages, ctx.Profile.PagesTouched)
	}
	perInsert := float64(appends()-appends0) / inserts
	t.Logf("page views per insert: %d at most, %.1f on average; log records per insert: %.1f",
		maxPages, float64(sumPages)/inserts, perInsert)
	if maxPages > firstInsertPages {
		t.Errorf("an insert viewed %d pages, bound %d", maxPages, firstInsertPages)
	}
	if perInsert > firstInsertAppends {
		t.Errorf("%.1f log records per insert, bound %d", perInsert, firstInsertAppends)
	}
	verifyAuction(t, db)
	if got := bidderCount(t, db); got != before+inserts {
		t.Fatalf("%d bidders stored, %d acknowledged", got, before+inserts)
	}
}

func verifyAuction(t *testing.T, db *core.Database) {
	t.Helper()
	tx, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	doc, err := tx.Document("auction")
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.VerifyDoc(tx.Tx, doc); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentProbingUpdaters: two writers addressing one document by
// indexed key. The probe locks exclusively up front, so neither ever holds a
// shared lock the other's upgrade waits on; run under -race.
func TestConcurrentProbingUpdaters(t *testing.T) {
	db := auctionDB(t, 200)
	const perWriter = 40
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tx, err := db.Begin()
				if err != nil {
					errs <- err
					return
				}
				src := fmt.Sprintf(`UPDATE insert <bidder><increase>%d</increase></bidder> into %s`, 1000*w+i, auctionByID(2*i+w))
				res, err := Execute(NewExecCtx(tx), src)
				if err == nil && res.Updated != 1 {
					err = fmt.Errorf("%s: %d updated, want 1", src, res.Updated)
				}
				if err != nil {
					tx.Rollback()
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	m := db.Metrics().Snapshot().Counters
	if m["lock.deadlock_aborts"] != 0 || m["lock.timeouts"] != 0 {
		t.Fatalf("deadlock_aborts=%d timeouts=%d, want 0/0", m["lock.deadlock_aborts"], m["lock.timeouts"])
	}
	if m["opt.index_probes"] < 2*perWriter {
		t.Fatalf("opt.index_probes=%d, want every update probed (%d)", m["opt.index_probes"], 2*perWriter)
	}
	if got := q(t, db, `count(doc("auction")//bidder[increase >= 0][increase < 2000][not(personref)])`); got != strconv.Itoa(2*perWriter) {
		t.Fatalf("inserted bidders found: %s, want %d", got, 2*perWriter)
	}
}

// TestUpdateProbeReadsOwnWrites: inside one transaction, an element inserted
// with a new indexed @id is found by a later update's probe (indexes are
// maintained in-transaction), and a rollback takes both the element and its
// index entry away again.
func TestUpdateProbeReadsOwnWrites(t *testing.T) {
	db := auctionDB(t, 100)
	before := q(t, db, `doc("auction")`)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback() // no-op after the explicit rollback; unblocks Close on a failure
	execIn(t, tx, `UPDATE insert <open_auction id="fresh"><current>1</current></open_auction> into doc("auction")/site/open_auctions`, false)
	probes := db.Metrics().Snapshot().Counters["opt.index_probes"]
	res := execIn(t, tx, `UPDATE replace $c in doc("auction")/site/open_auctions/open_auction[@id = "fresh"]/current with <current>2</current>`, false)
	if res.Updated != 1 {
		t.Fatalf("update by the just-inserted key: %d updated, want 1", res.Updated)
	}
	if got := db.Metrics().Snapshot().Counters["opt.index_probes"]; got != probes+1 {
		t.Fatalf("opt.index_probes %d -> %d, want the update probed", probes, got)
	}
	if s, _ := execIn(t, tx, `string(doc("auction")/site/open_auctions/open_auction[@id = "fresh"]/current)`, false).String(); s != "2" {
		t.Fatalf("current inside the transaction = %q, want 2", s)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := q(t, db, `count(doc("auction")/site/open_auctions/open_auction[@id = "fresh"])`); got != "0" {
		t.Fatalf("probe finds %s rolled-back auctions", got)
	}
	if got := q(t, db, `count(index-scan("auction_id", "fresh"))`); got != "0" {
		t.Fatalf("index holds %s entries for the rolled-back key", got)
	}
	if after := q(t, db, `doc("auction")`); after != before {
		t.Fatal("document differs after the rollback")
	}
	verifyAuction(t, db)
}
