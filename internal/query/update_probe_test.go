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
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true, BufferPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
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
// PROFILE shows the probe span and a target selection that touches tens of
// pages where the sibling scan touches thousands.
func TestUpdateTargetProbe(t *testing.T) {
	db := auctionDB(t, 1000)
	stmt := `UPDATE replace $c in ` + auctionByID(700) + `/current with <current>42</current>`

	out := q(t, db, `EXPLAIN `+stmt)
	for _, want := range []string{"plan=index-probe", "costs:", "index-probe", "structural-scan", "✓"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN of the update missing %q:\n%s", want, out)
		}
	}

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
	if probed >= 100 || scanned < 1000 {
		t.Fatalf("target selection touched %d pages probed, %d scanned; want tens vs thousands", probed, scanned)
	}
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
