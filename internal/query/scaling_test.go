package query

import (
	"strings"
	"testing"

	"sedna/internal/core"
	"sedna/internal/xmlgen"
)

// auctionPages loads a paged Auction document of n people and n items and
// returns the page accesses and the answer of one serial
// count(//item[quantity > 5]).
func auctionPages(t *testing.T, n int) (pages uint64, answer string) {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true, BufferPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.LoadXML("a", strings.NewReader(xmlgen.AuctionString(n, n, 2, 3))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rtx, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer rtx.Rollback()
	ctx := NewExecCtx(rtx)
	res, err := Execute(ctx, `count(doc("a")//item[quantity > 5])`)
	if err != nil {
		t.Fatal(err)
	}
	if answer, err = res.String(); err != nil {
		t.Fatal(err)
	}
	return ctx.Profile.PagesTouched, answer
}

// TestValuePredicateScalesLinearly guards the per-context-node cost of a
// paged step: comparing a stored element atomizes it, which opens a range
// scan under every context node, and opening one must not depend on how long
// the target's block list is. Four times the items may touch four times the
// pages (plus slack for the longer lists' block headers), not sixteen.
func TestValuePredicateScalesLinearly(t *testing.T) {
	small, a1 := auctionPages(t, 400)
	large, a4 := auctionPages(t, 1600)
	if a1 == "0" || a1 == a4 {
		t.Fatalf("answers %s and %s: the predicate must select a share of each document", a1, a4)
	}
	t.Logf("pages touched: %d items → %d, %d items → %d (%.2fx)", 400, small, 1600, large, float64(large)/float64(small))
	if float64(large) > 4.5*float64(small) {
		t.Fatalf("4x the items touched %.2fx the pages (%d → %d), want ≤ 4.5x", float64(large)/float64(small), small, large)
	}
}
