package core_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"sedna/internal/core"
	"sedna/internal/query"
	"sedna/internal/schema"
	"sedna/internal/storage"
	"sedna/internal/xmlgen"
)

// TestRandomizedCrashRecovery runs randomized committed/aborted update
// transactions against a database, crashes at a random point, recovers, and
// verifies (a) full structural integrity of every document and (b) that the
// visible state equals the model of committed statements.
func TestRandomizedCrashRecovery(t *testing.T) {
	for round := 0; round < 5; round++ {
		round := round
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + round)))
			dir := t.TempDir()
			db, err := core.Open(dir, core.Options{NoSync: true, BufferPages: 64})
			if err != nil {
				t.Fatal(err)
			}
			tx, _ := db.Begin()
			if _, err := tx.LoadXML("d", strings.NewReader("<r><items/><log/></r>")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			committedItems := 0
			steps := 20 + rng.Intn(40)
			for i := 0; i < steps; i++ {
				tx, err := db.Begin()
				if err != nil {
					t.Fatal(err)
				}
				stmt := fmt.Sprintf(`UPDATE insert <item n="%d"/> into doc("d")/r/items`, i)
				if _, err := query.Execute(query.NewExecCtx(tx), stmt); err != nil {
					t.Fatal(err)
				}
				if rng.Intn(4) == 0 {
					tx.Rollback()
				} else {
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					committedItems++
				}
				if rng.Intn(10) == 0 {
					if err := db.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			db.CrashForTesting()

			db2, err := core.Open(dir, core.Options{NoSync: true, BufferPages: 64})
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer db2.Close()
			rtx, _ := db2.BeginReadOnly()
			defer rtx.Rollback()
			doc, err := rtx.Document("d")
			if err != nil {
				t.Fatal(err)
			}
			if err := storage.VerifyDoc(rtx.Tx, doc); err != nil {
				t.Fatalf("integrity after recovery: %v", err)
			}
			res, err := query.Execute(query.NewExecCtx(rtx), `count(doc("d")/r/items/item)`)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := res.String()
			if got != fmt.Sprint(committedItems) {
				t.Fatalf("recovered %s items, committed %d", got, committedItems)
			}
		})
	}
}

// TestCrashDuringCheckpointEra exercises the snapshot-area era logic: crash
// right after a checkpoint, then again after post-checkpoint commits, and
// make sure each recovery converges.
func TestCrashDoubleRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := core.Open(dir, core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	tx.LoadXML("d", strings.NewReader("<r><a>1</a></r>"))
	tx.Commit()
	db.Checkpoint()
	tx, _ = db.Begin()
	if _, err := query.Execute(query.NewExecCtx(tx), `UPDATE insert <b/> into doc("d")/r`); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	db.CrashForTesting()

	// First recovery.
	db2, err := core.Open(dir, core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	// Crash again immediately — recovery must be idempotent.
	db2.CrashForTesting()
	db3, err := core.Open(dir, core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	rtx, _ := db3.BeginReadOnly()
	defer rtx.Rollback()
	res, err := query.Execute(query.NewExecCtx(rtx), `count(doc("d")/r/b)`)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.String(); got != "1" {
		t.Fatalf("after double recovery: %s", got)
	}
	doc, _ := rtx.Document("d")
	if err := storage.VerifyDoc(rtx.Tx, doc); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryWithIndexes checks that index pages and metadata survive a
// crash: physical redo restores the B+tree, logical records restore the
// catalog entry.
func TestRecoveryWithIndexes(t *testing.T) {
	dir := t.TempDir()
	db, err := core.Open(dir, core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	tx.LoadXML("d", strings.NewReader(`<r><e><k>alpha</k></e><e><k>beta</k></e></r>`))
	tx.Commit()
	tx, _ = db.Begin()
	if _, err := query.Execute(query.NewExecCtx(tx), `CREATE INDEX "byk" ON doc("d")/r/e BY k AS string`); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	// Post-index committed insert, maintained in the index.
	tx, _ = db.Begin()
	if _, err := query.Execute(query.NewExecCtx(tx), `UPDATE insert <e><k>gamma</k></e> into doc("d")/r`); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	db.CrashForTesting()

	db2, err := core.Open(dir, core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rtx, _ := db2.BeginReadOnly()
	defer rtx.Rollback()
	for _, k := range []string{"alpha", "beta", "gamma"} {
		res, err := query.Execute(query.NewExecCtx(rtx), fmt.Sprintf(`count(index-scan("byk", %q))`, k))
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := res.String(); got != "1" {
			t.Fatalf("index-scan(%q) after recovery = %s", k, got)
		}
	}
}

// TestCrashAfterTailSplits loads a 1000-auction document (the bulk loader
// packs its blocks full) and checkpoints, commits 50 random bidder inserts,
// which split packed blocks and so add blocks to the bidder list, leaves one
// more insert that adds a block uncommitted and crashes. After recovery the
// document verifies, holds every acknowledged bidder, and not the
// uncommitted one: the splits' moves are redone for the committed inserts
// and undone for the lost one.
func TestCrashAfterTailSplits(t *testing.T) {
	const auctions, inserts, marker = 1000, 50, 999999
	dir := t.TempDir()
	opts := core.Options{NoSync: true, BufferPages: 1024}
	db, err := core.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	loadDoc(t, db, "auction", xmlgen.AuctionString(auctions, auctions, 5, 3))
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	bidderBlocks := func(doc *storage.Doc) uint32 {
		return doc.Schema.Root.Child(schema.KindElement, "site").Child(schema.KindElement, "open_auctions").
			Child(schema.KindElement, "open_auction").Child(schema.KindElement, "bidder").BlockCount
	}
	count := func(db *core.Database, src string) int {
		t.Helper()
		tx, err := db.BeginReadOnly()
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Rollback()
		res, err := query.Execute(query.NewExecCtx(tx), src)
		if err != nil {
			t.Fatal(err)
		}
		s, _ := res.String()
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("%s: %q", src, s)
		}
		return n
	}
	const all = `count(doc("auction")//bidder)`
	want := count(db, all)
	insert := func(tx *core.Tx, k, mark int) {
		t.Helper()
		src := fmt.Sprintf(`UPDATE insert <bidder><increase>%d</increase></bidder> into doc("auction")/site/open_auctions/open_auction[@id = "a%d"]`, mark, k)
		res, err := query.Execute(query.NewExecCtx(tx), src)
		if err != nil || res.Updated != 1 {
			t.Fatalf("%s: %v", src, err)
		}
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := tx.Document("auction")
	if err != nil {
		t.Fatal(err)
	}
	loaded := bidderBlocks(doc)
	tx.Rollback()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < inserts; i++ {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		insert(tx, rng.Intn(auctions), i)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		want++
	}
	split := bidderBlocks(doc)
	if split == loaded {
		t.Fatalf("%d inserts left the bidder list at %d blocks: nothing split", inserts, loaded)
	}
	// The lost insert: the first key whose insert adds a block.
	lost, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; bidderBlocks(doc) == split; k++ {
		if k == auctions {
			t.Fatal("no insert adds a block to the bidder list")
		}
		insert(lost, k, marker)
	}
	db.CrashForTesting()

	db2, err := core.Open(dir, opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer db2.Close()
	rtx, err := db2.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := rtx.Document("auction")
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.VerifyDoc(rtx.Tx, doc2); err != nil {
		t.Fatalf("integrity after recovery: %v", err)
	}
	if got := bidderBlocks(doc2); got != split {
		t.Errorf("bidder list recovered with %d blocks, %d committed", got, split)
	}
	rtx.Rollback()
	if got := count(db2, all); got != want {
		t.Errorf("recovered %d bidders, %d acknowledged", got, want)
	}
	if got := count(db2, fmt.Sprintf(`count(doc("auction")//bidder[increase = %d])`, marker)); got != 0 {
		t.Errorf("the uncommitted bidder survived the crash %d times", got)
	}
}
