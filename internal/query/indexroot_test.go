package query

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"sedna/internal/core"
)

// growAuctions is an update that adds enough open_auctions in one statement
// to grow the auction_id B+tree of a small document by a level (a leaf holds
// some 500 keys).
const growAuctions = `UPDATE insert (for $i in 1 to 600 return <open_auction id="n{$i}"><initial>1</initial></open_auction>) into doc("auction")/site/open_auctions`

// growIndexIn runs growAuctions in tx and checks that the index root moved.
func growIndexIn(t *testing.T, db *core.Database, tx *core.Tx) {
	t.Helper()
	ix, _ := db.Catalog().Index("auction_id")
	before := ix.Root
	execIn(t, tx, growAuctions, false)
	if ix.Root == before {
		t.Fatal("600 inserted keys did not move the index root")
	}
}

// probeA3 looks a3 up in a read-only transaction through index-scan() and
// through a planned probe; both must find it.
func probeA3(db *core.Database) error {
	for _, src := range []string{
		`string(index-scan("auction_id", "a3")/@id)`,
		`string(` + auctionByID(3) + `/@id)`,
	} {
		const want = "a3"
		tx, err := db.BeginReadOnly()
		if err != nil {
			return err
		}
		res, err := Execute(NewExecCtx(tx), src)
		var got string
		if err == nil {
			got, err = res.String()
		}
		tx.Rollback()
		if err != nil {
			return fmt.Errorf("%s: %w", src, err)
		}
		if got != want {
			return fmt.Errorf("%s = %q, want %q", src, got, want)
		}
	}
	return nil
}

// TestIndexRootRollback: an update that split the index's root and rolled
// back leaves the index as it was — the catalog does not keep pointing at the
// discarded root — for readers and for the next writer alike.
func TestIndexRootRollback(t *testing.T) {
	db := auctionDB(t, 20)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback() // a failure must not leave it holding Close off
	growIndexIn(t, db, tx)
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := probeA3(db); err != nil {
		t.Fatal(err)
	}
	if got := q(t, db, `count(index-scan("auction_id", "n7"))`); got != "0" {
		t.Fatalf("a rolled-back key is in the index: n7 found %s times", got)
	}
	if got := upd(t, db, `UPDATE replace $c in `+auctionByID(3)+`/initial with <initial>9</initial>`).Updated; got != 1 {
		t.Fatalf("keyed update after the rollback changed %d nodes", got)
	}
	if got := q(t, db, `string(`+auctionByID(3)+`/initial)`); got != "9" {
		t.Fatalf("a3's initial is %q after the update", got)
	}
}

// TestIndexProbesDuringRootSplit races snapshot readers probing the index
// against a writer whose statement grows the B+tree a level, once rolling
// back and once committing: every probe answers from the tree as it was
// committed at its snapshot. Run under -race: the live root is the
// writer's alone.
func TestIndexProbesDuringRootSplit(t *testing.T) {
	db := auctionDB(t, 20)
	for _, commit := range []bool{false, true} {
		var done atomic.Bool
		errs := make(chan error, 4)
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !done.Load() {
					if err := probeA3(db); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		func() {
			defer wg.Wait()
			defer done.Store(true)
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			defer tx.Rollback()
			growIndexIn(t, db, tx)
			if commit {
				err = tx.Commit()
			} else {
				err = tx.Rollback()
			}
			if err != nil {
				t.Fatal(err)
			}
		}()
		close(errs)
		for err := range errs {
			t.Errorf("commit=%v: %v", commit, err)
		}
	}
	if got := q(t, db, `count(index-scan("auction_id", "n7"))`); got != "1" {
		t.Fatalf("the committed keys are not in the index: n7 found %s times", got)
	}
}
